import bisect
import collections
import collections.abc
import dataclasses
import gc
import hashlib
import itertools
import json
import math
import os
import random
import struct
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import envcover
from envcover.environment import (
    RELATION_KINDS,
    UNARY_KINDS,
    EnvironmentSpec,
    ObjectSpec,
    Placement,
    SpatialRelation,
    footprint,
    make_room,
    rebuild_metadata,
)
from envcover.errors import ConfigError, CoreUnsat, EncodingError, SchemaViolation, SolverTimeout
from envcover.semantics import DIRECTION_VECTORS, SIDE_LONG_MAX, SUPPORT_EPS, SUPPORT_OVERLAP_FRAC
from envcover.solver import (
    _IN_EPS,
    _TOL,
    MAX_GRID_POINTS,
    SolverConfig,
    _distance_keep,
    _distance_pruner,
    _grid_points,
    _Grid,
    _in_cells_exist,
    _inside_run_exists,
    _inside_span,
    _keep_all,
    _resting_pruner,
    _ValueOrder,
    _static_core,
    compatibility_conflicts,
    encode,
    solve,
    solve_with_relaxation,
)
from envcover.validator import _relation_holds, check_entities, validate_physics
from oracles import check_assignment, emitted_constraints, walked_grid_points

GRID = SolverConfig(grid_resolution=0.25, seed=0)


def obj(id, size, room="r", category="enrichment", **attributes):
    return ObjectSpec(
        id=id,
        description=f"a {id}",
        room=room,
        size=size,
        category=category,
        attributes=attributes,
    )


def room4():
    return make_room("r", 0, 0, 4, 4)


def brute_force_sat(problem) -> bool:
    """Ground-truth satisfiability by full enumeration of the domains."""
    order = problem.variables
    domains = [problem.domains[vid] for vid in order]
    for combo in itertools.product(*domains):
        if check_assignment(problem, dict(zip(order, combo))):
            return True
    return False


# ---------------------------------------------------------------------------
# encoding census
# ---------------------------------------------------------------------------


def test_encoding_census_for_one_room_two_objects_one_relation():
    sofa = obj("sofa", (2.0, 0.8, 0.9))
    book = obj("book", (0.25, 0.04, 0.18))
    rels = [SpatialRelation(kind="on_top_of", subject="book", reference="sofa")]
    problem = encode([room4()], [], [], [sofa, book], rels, GRID)

    # position and direction per object, larger footprint ordered first
    assert problem.variables == [
        "sofa.dir",
        "sofa.pos",
        "book.dir",
        "book.pos",
    ]
    # a position domain is its grid's cells in product(xs, zs) order, made on read
    grid = problem.geo.grids["book"]
    cells = list(itertools.product(grid.xs, grid.zs))
    assert isinstance(problem.domains["book.pos"], collections.abc.Sequence)
    assert len(problem.domains["book.pos"]) == len(cells)
    assert list(problem.domains["book.pos"]) == cells
    assert problem.domains["book.pos"][-1] == cells[-1]
    kinds = sorted(c.kind for c in problem.constraints)
    assert kinds == [
        "non_collision",
        "on_top_of",
        "room_containment",
        "room_containment",
    ]
    relation = [c for c in problem.constraints if c.kind == "on_top_of"]
    assert relation[0].scope == ("book", "sofa")
    assert relation[0].variables == ("sofa.dir", "sofa.pos", "book.dir", "book.pos")
    assert not relation[0].relaxable  # contact relations are never dropped


def constraint_census(problem) -> list[tuple]:
    """emitted_constraints' fields, read from the problem's constraints."""
    return [
        (c.id, c.kind, c.scope, c.variables, c.relaxable, c.relation_index, c.prune is _keep_all)
        for c in problem.constraints
    ]


def test_encode_emits_the_constraints_of_the_generic_rule(
    selected_trajectories, catalog, task_schema, cassette_records
):
    # the seeded pre-solve drafts that encode accepts, the differential
    # instances and the three fixture scenes
    problems = []
    rng = random.Random("pre-solve")
    for trial in range(300):
        rooms, objects, relations = pre_solve_draft(rng)
        try:
            problems.append(encode(rooms, [], [], objects, relations, SolverConfig(grid_resolution=0.5)))
        except EncodingError:
            pass
    rng = random.Random(20261018)
    for _ in range(40):
        rooms, objects, relations = differential_instance(rng)
        problems.append(encode(rooms, [], [], objects, relations, GRID))
    _, selected = selected_trajectories
    fixture, _ = fixture_scene_solutions(
        selected, catalog, task_schema, cassette_records, lambda i: SolverConfig(grid_resolution=0.2)
    )
    assert len(fixture) == 3
    for problem in problems + fixture:
        assert constraint_census(problem) == emitted_constraints(problem)
    # the census covers pairs whose subject is searched first and last, both
    # variable shapes, and pruned and unpruned non_collision pairs
    pairs = [c for p in problems + fixture for c in p.constraints if len(c.scope) == 2]
    assert {c.variables[0].startswith(c.scope[0] + ".") for c in pairs} == {True, False}
    assert {len(c.variables) for c in pairs} == {2, 4}
    assert {c.prune is _keep_all for c in pairs if c.kind == "non_collision"} == {True, False}


def test_direction_swaps_rectangular_footprints():
    table = obj("table", (1.2, 0.5, 0.8))
    problem = encode([room4()], [], [], [table], [], GRID)
    assert problem.geo.footprints[("table", "north")] == (1.2, 0.8)
    assert problem.geo.footprints[("table", "east")] == (0.8, 1.2)


def test_unknown_room_is_an_encoding_error():
    # the shared reference check rejects it before anything is encoded
    with pytest.raises(SchemaViolation, match=r"objects\[x\]: unknown room 'nope'"):
        encode([room4()], [], [], [obj("x", (1, 1, 1), room="nope")], [], GRID)


def test_duplicate_ids_are_rejected_before_encoding():
    twins = [obj("o", (0.5, 0.5, 0.5)), obj("o", (0.5, 0.5, 0.5))]
    with pytest.raises(SchemaViolation, match="duplicate object ids"):
        encode([room4()], [], [], twins, [], GRID)
    with pytest.raises(SchemaViolation, match="duplicate room ids"):
        encode([room4(), make_room("r", 4, 0, 8, 4)], [], [], [], [], GRID)


def test_an_object_and_a_doorway_may_not_share_an_id():
    # both would be the variable d.pos, and the object was placed half out of its room
    from envcover.environment import Doorway

    door = Doorway(id="d", connects=("r", "exterior"), width=0.9, height=2.1)
    with pytest.raises(SchemaViolation, match=r"objects\[d\]: object id 'd' is also a doorway id"):
        encode([room4()], [door], [], [obj("d", (0.5, 0.5, 0.5))], [], GRID)


def test_object_wider_than_room_is_an_encoding_error():
    with pytest.raises(EncodingError):
        encode([room4()], [], [], [obj("x", (5.0, 1.0, 5.0))], [], GRID)


def test_object_taller_than_walls_is_an_encoding_error():
    with pytest.raises(EncodingError):
        encode([room4()], [], [], [obj("x", (1.0, 3.2, 1.0))], [], GRID)


@pytest.mark.parametrize(
    "relation",
    [
        (dict(kind="near", subject="a"), "needs a reference"),  # binary kind
        (dict(kind="on_top_of", subject="a"), "needs a reference"),  # support kind
        (dict(kind="near", subject="a", reference="a"), "its own subject"),
        (dict(kind="far", subject="a", reference="ghost"), r"relations\[0\]: unknown reference"),
        (dict(kind="edge", subject="ghost"), r"relations\[0\]: unknown subject"),
    ],
)
def test_relation_the_solver_cannot_scope_is_an_encoding_error(relation):
    # never encoded: the first three cannot be built, and the shared
    # reference check rejects the other two
    fields, message = relation
    objects = [obj("a", (1, 0.5, 1)), obj("b", (1, 0.5, 1))]
    with pytest.raises(SchemaViolation, match=message):
        encode([room4()], [], [], objects, [SpatialRelation(**fields)], GRID)


def test_support_cycle_is_an_encoding_error():
    a, b = obj("a", (1, 0.5, 1)), obj("b", (1, 0.5, 1))
    rels = [
        SpatialRelation(kind="on_top_of", subject="a", reference="b"),
        SpatialRelation(kind="on_top_of", subject="b", reference="a"),
    ]
    with pytest.raises(EncodingError):
        encode([room4()], [], [], [a, b], rels, GRID)


def test_two_support_relations_for_one_subject_are_an_encoding_error():
    sofa, table = obj("sofa", (2.0, 0.8, 0.9)), obj("table", (1.2, 0.5, 0.8))
    book = obj("book", (0.25, 0.04, 0.18))
    rels = [
        SpatialRelation(kind="on_top_of", subject="book", reference="sofa"),
        SpatialRelation(kind="on_top_of", subject="book", reference="table"),
    ]
    with pytest.raises(EncodingError, match="'book' has more than one support relation"):
        encode([room4()], [], [], [sofa, table, book], rels, GRID)


def test_an_object_mounted_above_the_wall_top_is_an_encoding_error():
    # a 1.0 m picture mounted at 2.5 m would reach 3.5 m: the validator
    # finds it poking through the ceiling, so it must never come back sat
    picture = obj("picture", (1.0, 1.0, 0.05), mount_height="2.5")
    rels = [SpatialRelation(kind="mounted_on_wall", subject="picture")]
    with pytest.raises(EncodingError, match="'picture' would reach 3.5 m, above the 3 m walls"):
        encode([room4()], [], [], [picture], rels, GRID)


def test_an_object_stacked_above_the_wall_top_is_an_encoding_error():
    # each fits under the walls alone; a 1.5 m lamp on a 2.0 m shelf does not
    lamp, shelf = obj("lamp", (0.3, 1.5, 0.3)), obj("shelf", (0.8, 2.0, 0.4))
    rels = [SpatialRelation(kind="on_top_of", subject="lamp", reference="shelf")]
    with pytest.raises(EncodingError, match="'lamp' would reach 3.5 m"):
        encode([room4()], [], [], [lamp, shelf], rels, GRID)
    assert compatibility_conflicts([lamp, shelf], rels) == [
        {
            "rule": "mountability",
            "relations": [0],
            "message": "object 'lamp' would reach 3.5 m, above the 3 m walls",
        }
    ]


def test_a_contact_or_relative_relation_across_two_rooms_is_an_encoding_error():
    rooms = [make_room("w", 0, 0, 4, 4), make_room("e", 4, 0, 8, 4)]
    a, b = obj("a", (0.4, 0.4, 0.4), room="w"), obj("b", (0.4, 0.4, 0.4), room="e")
    for kind in ("side_of", "on_top_of"):
        rels = [SpatialRelation(kind=kind, subject="a", reference="b")]
        with pytest.raises(EncodingError, match=f"{kind} needs 'a' and 'b' in one room"):
            encode(rooms, [], [], [a, b], rels, GRID)
    # a distance relation may span two rooms
    near = [SpatialRelation(kind="near", subject="a", reference="b")]
    assert solve(encode(rooms, [], [], [a, b], near, GRID)).status == "sat"


def test_an_in_subject_taller_than_its_container_is_an_encoding_error():
    # the footprint fits in a quarter turn; the height does not
    toy, crate = obj("toy", (0.45, 0.35, 0.2)), obj("crate", (0.25, 0.3, 0.5))
    rels = [SpatialRelation(kind="in", subject="toy", reference="crate")]
    with pytest.raises(EncodingError, match="'toy' does not fit inside 'crate'"):
        encode([room4()], [], [], [toy, crate], rels, GRID)
    low = obj("toy", (0.45, 0.3 + SUPPORT_EPS, 0.2))
    assert solve(encode([room4()], [], [], [low, crate], rels, GRID)).status == "sat"


@pytest.mark.parametrize("step", [float("nan"), float("inf"), float("-inf"), 0.0, -0.1])
def test_grid_step_must_be_finite_and_positive(step):
    with pytest.raises(ConfigError, match="grid resolution"):
        SolverConfig(grid_resolution=step)


@pytest.mark.parametrize("step", [1e-300, 1e-9])
def test_a_grid_too_fine_for_its_room_is_a_config_error(step):
    # 1e-300 never moves the walk past its start; 1e-9 would list billions of points
    sofa = obj("sofa", (2.0, 0.8, 0.9))
    config = SolverConfig(grid_resolution=step)
    with pytest.raises(ConfigError, match=rf"grid resolution {step} puts .* points on one axis"):
        encode([room4()], [], [], [sofa], [], config)
    assert config._grids == {} and config._orders == {}


def end_on(lo: float, res: float, k: int) -> float:
    """An hi whose hi + _TOL is point k, lo + k * res, exactly where a float
    within a few ulps of it gives that, else the nearest one tried."""
    target = lo + k * res
    hi = target - _TOL
    for _ in range(8):
        if hi + _TOL == target:
            break
        hi = math.nextafter(hi, -math.inf if hi + _TOL > target else math.inf)
    return hi


def same_grid_points(lo: float, hi: float, res: float) -> None:
    """_grid_points equals the walk element for element, or both refuse
    with the same message."""
    try:
        expected = walked_grid_points(lo, hi, res)
    except ConfigError as exc:
        with pytest.raises(ConfigError) as refused:
            _grid_points(lo, hi, res)
        assert str(refused.value) == str(exc)
        return
    assert list(map(repr, _grid_points(lo, hi, res))) == list(map(repr, expected))


@st.composite
def grid_axes(draw):
    """(lo, hi, res): spans the step may not divide, ends on a point to the
    float, ends below lo, and point counts near MAX_GRID_POINTS."""
    res = draw(st.sampled_from([0.025, 0.05, 0.1, 0.2, 0.25, 1 / 3, 0.7]) | st.floats(1e-3, 2.0))
    lo = draw(st.sampled_from([0.0, 0.2, 0.45, -1.3, 1e6]) | st.floats(-1e3, 1e3))
    shape = draw(st.sampled_from(["span", "on_a_point", "reversed", "near_max"]))
    if shape == "span":
        return lo, lo + draw(st.floats(0.0, 40.0)), res
    if shape == "on_a_point":
        return lo, end_on(lo, res, draw(st.integers(0, 400))), res
    if shape == "reversed":
        return lo, lo - draw(st.floats(1e-12, 40.0)), res
    k = MAX_GRID_POINTS + draw(st.integers(-2, 2))
    return lo, end_on(lo, res, k) + draw(st.sampled_from([-1e-12, 0.0, 1e-12])), res


@settings(max_examples=300, deadline=None)
@given(axis=grid_axes())
def test_grid_points_equal_the_walk(axis):
    same_grid_points(*axis)


def test_grid_points_keep_a_point_exactly_on_the_end_and_drop_it_one_ulp_short():
    hits = 0
    for lo, res in [(0.2, 0.1), (0.45, 0.05), (1 / 3, 0.25), (0.075, 0.2), (-1.3, 0.7), (0.0, 0.025)]:
        for k in range(60):
            hi = end_on(lo, res, k)
            if hi + _TOL != lo + k * res:
                continue
            hits += 1
            below = math.nextafter(hi, -math.inf)
            for end in (hi, below):
                same_grid_points(lo, end, res)
            assert len(_grid_points(lo, hi, res)) == k + 1
            if below + _TOL < lo + k * res:
                assert len(_grid_points(lo, below, res)) == k
    assert hits >= 300


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------


def test_stacked_objects_solve_with_static_heights():
    sofa = obj("sofa", (2.0, 0.8, 0.9))
    book = obj("book", (0.25, 0.04, 0.18))
    rels = [SpatialRelation(kind="on_top_of", subject="book", reference="sofa")]
    problem = encode([room4()], [], [], [sofa, book], rels, GRID)
    solution = solve(problem)
    assert solution.status == "sat"
    by_obj = {p.object: p for p in solution.placements}
    assert by_obj["sofa"].position[1] == 0.0
    assert by_obj["book"].position[1] == pytest.approx(0.8)
    # at least half the book footprint rests on the sofa footprint
    assign = solution.assignments
    bb = problem.geo.box("book", assign["book.pos"], assign["book.dir"])
    sb = problem.geo.box("sofa", assign["sofa.pos"], assign["sofa.dir"])
    w = min(bb[3], sb[3]) - max(bb[0], sb[0])
    d = min(bb[5], sb[5]) - max(bb[2], sb[2])
    book_area = (bb[3] - bb[0]) * (bb[5] - bb[2])
    assert w > 0 and d > 0 and w * d >= 0.5 * book_area - 1e-9


def test_containment_relation_places_subject_inside_reference():
    box = obj("box", (0.5, 0.3, 0.4))
    toy = obj("toy", (0.2, 0.3, 0.15))
    rels = [SpatialRelation(kind="in", subject="toy", reference="box")]
    problem = encode([room4()], [], [], [box, toy], rels, GRID)
    solution = solve(problem)
    assert solution.status == "sat"
    assign = solution.assignments
    tb = problem.geo.box("toy", assign["toy.pos"], assign["toy.dir"])
    bb = problem.geo.box("box", assign["box.pos"], assign["box.dir"])
    eps = 0.011
    assert tb[0] >= bb[0] - eps and tb[3] <= bb[3] + eps
    assert tb[2] >= bb[2] - eps and tb[5] <= bb[5] + eps
    assert tb[4] <= bb[4] + eps


def test_mounted_object_sits_at_mount_height_and_flush():
    pic = obj("pic", (0.6, 0.45, 0.05))
    rels = [SpatialRelation(kind="mounted_on_wall", subject="pic")]
    problem = encode([room4()], [], [], [pic], rels, GRID)
    solution = solve(problem)
    assert solution.status == "sat"
    p = solution.placements[0]
    assert p.position[1] == pytest.approx(1.4)
    box = problem.geo.box("pic", (p.position[0], p.position[2]), p.direction)
    room = room4()
    back = {
        "north": box[2] - room.z_min,
        "south": room.z_max - box[5],
        "east": box[0] - room.x_min,
        "west": room.x_max - box[3],
    }[p.direction]
    assert abs(back) <= 0.011


def test_same_seed_reproduces_identical_placements():
    objs = [obj("a", (1.0, 0.5, 0.8)), obj("b", (0.6, 0.4, 0.6)), obj("c", (0.5, 1.0, 0.5))]
    rels = [SpatialRelation(kind="near", subject="b", reference="a")]
    first = solve(encode([room4()], [], [], objs, rels, GRID))
    second = solve(encode([room4()], [], [], objs, rels, GRID))
    assert first.status == second.status == "sat"
    assert first.placements == second.placements
    assert first.stats == second.stats


def test_other_seeds_still_satisfy_the_same_problem():
    objs = [obj("a", (1.0, 0.5, 0.8)), obj("b", (0.6, 0.4, 0.6))]
    for seed in (1, 7, 42):
        config = SolverConfig(grid_resolution=0.25, seed=seed)
        solution = solve(encode([room4()], [], [], objs, [], config))
        assert solution.status == "sat"


def test_exhausted_search_returns_unsat_not_an_exception():
    # two 2.5 m squares cannot share a 3 m room without overlapping
    big1, big2 = obj("big1", (2.5, 0.5, 2.5)), obj("big2", (2.5, 0.5, 2.5))
    problem = encode([make_room("r", 0, 0, 3, 3)], [], [], [big1, big2], [], GRID)
    solution = solve(problem)
    assert solution.status == "unsat"
    assert solution.stats["backtracks"] > 0


def test_budget_exhaustion_is_a_timeout_not_unsat():
    big1, big2 = obj("big1", (2.5, 0.5, 2.5)), obj("big2", (2.5, 0.5, 2.5))
    config = SolverConfig(grid_resolution=0.25, seed=0, max_backtracks=0)
    problem = encode([make_room("r", 0, 0, 3, 3)], [], [], [big1, big2], [], config)
    with pytest.raises(SolverTimeout):
        solve(problem)


def test_a_reduced_thrashing_scene_times_out_at_the_default_budget():
    """A satisfiable scene that chronological backtracking cannot finish.

    Delta debugging reduced it from a 12-object, 7-relation scene of the
    solver_dense benchmark pool (seed 110) that times out: dropping any one
    object or the relation makes it solve, and so do other solver seeds. A
    search that explains its failures (ROADMAP item 1, backjumping) moves it
    to sat, and this test with it.
    """
    sizes = {
        "anchor1": ((0.92, 0.68, 0.98), "task_related"),
        "anchor2": ((0.99, 0.51, 0.93), "enrichment"),
        "anchor3": ((0.71, 0.72, 0.88), "task_related"),
        "anchor4": ((0.96, 0.72, 0.72), "task_related"),
        "anchor5": ((0.96, 0.89, 0.83), "enrichment"),
    }
    objects = [obj(name, size, category=category) for name, (size, category) in sizes.items()]
    far = SpatialRelation(kind="far", subject="anchor1", reference="anchor3")
    room = make_room("r", 0, 0, 5, 5)
    config = SolverConfig(grid_resolution=0.1, seed=590616891)
    with pytest.raises(SolverTimeout):
        solve_with_relaxation(encode([room], [], [], objects, [far], config))
    other = SolverConfig(grid_resolution=0.1, seed=0)
    assert solve_with_relaxation(encode([room], [], [], objects, [far], other)).status == "sat"


def test_overlapping_rooms_fail_statically_with_no_search():
    rooms = [make_room("a", 0, 0, 4, 4), make_room("b", 2, 2, 6, 6)]
    with pytest.raises(EncodingError, match="overlap"):
        encode(rooms, [], [], [], [], GRID)
    touching = [make_room("a", 0, 0, 4, 4), make_room("b", 4, 0, 8, 4)]
    assert solve(encode(touching, [], [], [], [], GRID)).status == "sat"


# ---------------------------------------------------------------------------
# doors and windows
# ---------------------------------------------------------------------------


def adjacent_rooms():
    return [make_room("west_room", 0, 0, 4, 4), make_room("east_room", 4, 0, 8, 4)]


def test_door_lands_on_the_shared_wall():
    from envcover.environment import Doorway

    door = Doorway(id="door", connects=("west_room", "east_room"), width=0.9, height=2.1)
    problem = encode(adjacent_rooms(), [door], [], [], [], GRID)
    solution = solve(problem)
    assert solution.status == "sat"
    x, z = solution.door_positions["door"]
    assert x == pytest.approx(4.0)
    assert 0.45 - 1e-9 <= z <= 3.55 + 1e-9


@pytest.mark.parametrize(
    "north_room, kept",
    [
        ((0, 3, 4, 6), []),  # the whole north wall is shared
        ((0, 3, 2, 6), [2.45, 2.95, 3.45]),  # only its west half: spans that touch x = 2 stay
    ],
)
def test_exterior_door_never_opens_onto_another_room(north_room, kept):
    from envcover.environment import Doorway

    rooms = [make_room("a", 0, 0, 4, 3), make_room("b", *north_room)]
    door = Doorway(id="d", connects=("a", "exterior"), width=0.9, height=2.1)
    problem = encode(rooms, [door], [], [], [], SolverConfig(grid_resolution=0.5, seed=5))
    cells = list(problem.domains["d.pos"])
    assert [x for x, z in cells if z == 3.0] == kept
    assert len([c for c in cells if c[1] != 3.0]) == 17  # the other three walls keep every cell
    x, z = solve(problem).door_positions["d"]
    assert z != 3.0 or x in kept


def test_door_between_detached_rooms_is_an_encoding_error():
    from envcover.environment import Doorway

    rooms = [make_room("a", 0, 0, 4, 4), make_room("b", 6, 0, 10, 4)]
    door = Doorway(id="door", connects=("a", "b"), width=0.9, height=2.1)
    with pytest.raises(EncodingError):
        encode(rooms, [door], [], [], [], GRID)


def test_window_sits_inside_its_wall_span():
    from envcover.environment import Window

    win = Window(id="win", room="r", orientation="north", width=1.2, height=1.0, sill_height=0.9)
    problem = encode([room4()], [], [win], [], [], GRID)
    solution = solve(problem)
    assert solution.status == "sat"
    x, z = solution.window_positions["win"]
    assert z == pytest.approx(4.0)  # north wall of a 0..4 room
    assert 0.6 - 1e-9 <= x <= 3.4 + 1e-9


@pytest.mark.parametrize("connects", [("exterior", "nope"), ("r", "nope"), ("nope", "r")])
def test_doorway_to_an_unknown_room_is_an_encoding_error(connects):
    from envcover.environment import Doorway

    door = Doorway(id="door", connects=connects, width=0.9, height=2.1)
    with pytest.raises(SchemaViolation, match=r"doorways\[door\]: unknown room 'nope'"):
        encode([room4()], [door], [], [], [], GRID)


def test_window_facing_no_cardinal_is_an_encoding_error():
    from envcover.environment import Window

    # such a window cannot be built, so it never reaches the encoding
    with pytest.raises(SchemaViolation, match="orientation"):
        Window(id="win", room="r", orientation="up", width=1.2, height=1.0, sill_height=0.9)


def test_window_wider_than_wall_is_an_encoding_error():
    from envcover.environment import Window

    win = Window(id="win", room="r", orientation="north", width=5.0, height=1.0, sill_height=0.9)
    with pytest.raises(EncodingError):
        encode([room4()], [], [win], [], [], GRID)


@pytest.mark.parametrize(
    "width, height, message",
    [(4.5, 2.1, "does not fit on its wall"), (0.9, 3.2, "is taller than the walls")],
    ids=["wider_than_every_wall", "taller_than_the_walls"],
)
def test_a_doorway_its_walls_cannot_hold_is_an_encoding_error(width, height, message):
    from envcover.environment import Doorway

    door = Doorway(id="door", connects=("r", "exterior"), width=width, height=height)
    with pytest.raises(EncodingError, match=f"doorway 'door' {message}"):
        encode([room4()], [door], [], [], [], GRID)


def test_window_above_the_wall_height_is_an_encoding_error():
    from envcover.environment import Window

    win = Window(id="win", room="r", orientation="north", width=1.2, height=1.0, sill_height=2.5)
    with pytest.raises(EncodingError, match="window 'win' does not fit under the wall height"):
        encode([room4()], [], [win], [], [], GRID)


def test_a_footprint_at_the_tolerance_edge_of_its_room_has_no_grid_cell():
    # the slab fits the 3 m span within _TOL, so some direction fits. In
    # reals its first grid point, x_min + f / 2, lies exactly _TOL past its
    # last, x_max - f / 2, which the grid walk still admits; in floats it
    # lies further, so the walk yields no point
    f = 3.000000001
    x_min, x_max = -1.0, 2.0
    assert f <= x_max - x_min + _TOL
    assert x_min + f / 2 > x_max - f / 2 + _TOL
    room = make_room("r", x_min, x_min, x_max, x_max)
    with pytest.raises(EncodingError, match="no grid cell fits object 'slab' in room 'r'"):
        encode([room], [], [], [obj("slab", (f, 0.5, f))], [], GRID)


# ---------------------------------------------------------------------------
# completeness against brute force
# ---------------------------------------------------------------------------


def random_mini_instance(rng):
    side = rng.choice([1.0, 1.25, 1.5])
    room = make_room("r", 0, 0, side, side)
    sizes = [0.5, 0.75]
    objects = [
        obj("a", (rng.choice(sizes), 0.4, rng.choice(sizes))),
        obj("b", (rng.choice(sizes), 0.3, rng.choice(sizes))),
    ]
    relations = []
    peek = rng.random()
    if peek < 0.3:
        relations.append(SpatialRelation(kind="near", subject="b", reference="a"))
    elif peek < 0.5:
        relations.append(SpatialRelation(kind="far", subject="b", reference="a"))
    elif peek < 0.7:
        relations.append(SpatialRelation(kind="edge", subject="a"))
    return room, objects, relations


def test_solver_agrees_with_brute_force_on_mini_instances():
    rng = random.Random(20240817)
    for trial in range(20):
        room, objects, relations = random_mini_instance(rng)
        problem = encode([room], [], [], objects, relations, GRID)
        expected = brute_force_sat(problem)
        got = solve(problem).status == "sat"
        assert got == expected, f"trial {trial}: solver {got}, enumeration {expected}"


# ---------------------------------------------------------------------------
# relaxation
# ---------------------------------------------------------------------------


def contradictory_distance_scene():
    a = obj("a", (0.6, 0.4, 0.6))
    b = obj("b", (0.6, 0.4, 0.6))
    rels = [
        SpatialRelation(kind="near", subject="b", reference="a", priority="enrichment"),
        SpatialRelation(kind="far", subject="b", reference="a", priority="enrichment"),
    ]
    return [a, b], rels


def test_relaxation_drops_the_first_distance_constraint_only():
    objects, rels = contradictory_distance_scene()
    problem = encode([room4()], [], [], objects, rels, GRID)
    solution = solve_with_relaxation(problem)
    assert solution.status == "sat"
    ladder = [c.id for c in problem.relax_order()]
    assert solution.relaxed == ladder[:1]
    assert solution.relaxed[0].startswith("rel[0]:near")


def test_relaxed_list_is_always_a_ladder_prefix():
    a = obj("a", (0.6, 0.4, 0.6))
    b = obj("b", (0.6, 0.4, 0.6))
    c = obj("c", (0.5, 0.4, 0.5))
    rels = [
        SpatialRelation(kind="near", subject="b", reference="a", priority="enrichment"),
        SpatialRelation(kind="far", subject="b", reference="a", priority="enrichment"),
        SpatialRelation(kind="near", subject="c", reference="a", priority="enrichment"),
        SpatialRelation(kind="far", subject="c", reference="a", priority="enrichment"),
    ]
    problem = encode([room4()], [], [], [a, b, c], rels, GRID)
    solution = solve_with_relaxation(problem)
    assert solution.status == "sat"
    ladder = [c.id for c in problem.relax_order()]
    assert solution.relaxed == ladder[: len(solution.relaxed)]
    assert len(solution.relaxed) >= 2  # both pairs are contradictory


def test_task_priority_contradiction_is_core_unsat():
    objects, rels = contradictory_distance_scene()
    rels = [
        SpatialRelation(kind=r.kind, subject=r.subject, reference=r.reference, priority="task")
        for r in rels
    ]
    problem = encode([room4()], [], [], objects, rels, GRID)
    with pytest.raises(CoreUnsat):
        solve_with_relaxation(problem)


def test_support_relations_are_never_relaxed():
    pic, o = obj("pic", (0.6, 0.45, 0.05)), obj("o", (0.6, 0.4, 0.6))
    rels = [
        SpatialRelation(kind="mounted_on_wall", subject="pic", priority="enrichment"),
        SpatialRelation(kind="center", subject="o", priority="task"),
        SpatialRelation(kind="edge", subject="o", priority="enrichment"),
    ]
    problem = encode([make_room("r", 0, 0, 6, 6)], [], [], [pic, o], rels, GRID)
    assert solve_with_relaxation(problem).relaxed == ["rel[2]:edge:o"]


def test_mounting_at_floor_height_is_core_unsat():
    pic = obj("pic", (0.6, 0.45, 0.05), mount_height="0")
    rels = [SpatialRelation(kind="mounted_on_wall", subject="pic", priority="enrichment")]
    problem = encode([room4()], [], [], [pic], rels, GRID)
    with pytest.raises(CoreUnsat):
        solve_with_relaxation(problem)


def test_finished_searches_leave_no_reference_cycles():
    sofa, book = obj("sofa", (2.0, 0.8, 0.9)), obj("book", (0.25, 0.04, 0.18))
    stacked = [SpatialRelation(kind="on_top_of", subject="book", reference="sofa")]
    problems = [
        encode([room4()], [], [], [sofa, book], stacked, GRID),
        encode([room4()], [], [], *contradictory_distance_scene(), GRID),
    ]
    gc.collect()
    gc.disable()
    try:
        for problem in problems:
            assert solve_with_relaxation(problem).status == "sat"
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_relaxation_never_touches_task_relations():
    a = obj("a", (0.6, 0.4, 0.6))
    b = obj("b", (0.6, 0.4, 0.6))
    rels = [
        SpatialRelation(kind="near", subject="b", reference="a", priority="task"),
        SpatialRelation(kind="far", subject="b", reference="a", priority="enrichment"),
    ]
    problem = encode([room4()], [], [], [a, b], rels, GRID)
    solution = solve_with_relaxation(problem)
    assert solution.status == "sat"
    assert solution.relaxed == ["rel[1]:far:b"]
    # the surviving near relation holds in the solution
    ax, az = solution.assignments["a.pos"]
    bx, bz = solution.assignments["b.pos"]
    assert (ax - bx) ** 2 + (az - bz) ** 2 <= 1.5**2 + 1e-9


# ---------------------------------------------------------------------------
# forward-checking pruners against their predicates
# ---------------------------------------------------------------------------

# (constraint kind, relation kinds to state) for every kind that has a pruner
PRUNED = {
    "room_containment": (),
    "non_collision": (),
    "near": ("near",),
    "far": ("far",),
    "edge": ("edge",),
    "on_top_of": ("on_top_of",),
    "mounted_on_wall": ("mounted_on_wall",),
    "side_of": ("side_of",),
}

coord = st.integers(min_value=-300, max_value=300).map(lambda k: k / 100)
extent = st.integers(min_value=5, max_value=130).map(lambda k: k / 100)


def mask_of(indices) -> int:
    return sum(1 << i for i in indices)


@pytest.mark.parametrize("kind", sorted(PRUNED))
@given(
    x0=coord,
    z0=coord,
    width=st.integers(min_value=150, max_value=400).map(lambda k: k / 100),
    depth=st.integers(min_value=150, max_value=400).map(lambda k: k / 100),
    grid=st.sampled_from([0.05, 0.1, 0.2, 0.25]),
    sizes=st.lists(st.tuples(extent, extent, extent), min_size=2, max_size=2),
    pick=st.randoms(use_true_random=False),
)
def test_pruner_equals_the_set_and_check_filter(kind, x0, z0, width, depth, grid, sizes, pick):
    room = make_room("r", x0, z0, round(x0 + width, 2), round(z0 + depth, 2))
    objects = [obj("a", sizes[0]), obj("b", sizes[1])]
    relations = [
        SpatialRelation(kind=k, subject="a", reference=None if k in UNARY_KINDS else "b")
        for k in PRUNED[kind]
    ]
    try:
        problem = encode([room], [], [], objects, relations, SolverConfig(grid_resolution=grid))
    except EncodingError:
        assume(False)
    c = next(c for c in problem.constraints if c.kind == kind)
    prune, check = c.prune, c.check

    # the moving endpoint keeps only its direction; the others are placed
    moving = pick.choice(c.scope)
    assign = {}
    for entity in c.scope:
        assign[f"{entity}.dir"] = pick.choice(sorted(DIRECTION_VECTORS))
        if entity != moving:
            assign[f"{entity}.pos"] = pick.choice(problem.domains[f"{entity}.pos"])
    u = f"{moving}.pos"
    domain = problem.domains[u]
    alive = pick.sample(range(len(domain)), pick.randint(1, len(domain)))

    expected = mask_of(i for i in alive if check({**assign, u: domain[i]}))
    assert prune(assign, u, mask_of(alive)) == expected


@pytest.mark.parametrize("kind", ["near", "far"])
@pytest.mark.parametrize("where", ["below", "above", "on_a_row"])
@pytest.mark.parametrize("grid", [0.05, 0.1, 0.25])
def test_distance_pruner_with_the_partner_off_and_on_the_grid(kind, where, grid):
    # the partner's z below the moving object's rows, above them, or on one
    room = make_room("r", 0, 0, 6, 5)
    objects = [obj("a", (0.5, 0.4, 0.9)), obj("b", (0.3, 0.4, 0.2))]
    rel = SpatialRelation(kind=kind, subject="a", reference="b")
    problem = encode([room], [], [], objects, [rel], SolverConfig(grid_resolution=grid))
    c = next(c for c in problem.constraints if c.kind == kind)
    domain = problem.domains["a.pos"]
    zs = sorted({z for _, z in domain})
    pz = {"below": zs[0] - 0.37, "above": zs[-1] + 0.41, "on_a_row": zs[len(zs) // 3]}[where]
    for px in (0.15, 2.95, 4.4):
        assign = {"b.pos": (px, pz)}
        expected = mask_of(i for i, v in enumerate(domain) if c.check({**assign, "a.pos": v}))
        assert expected not in (0, mask_of(range(len(domain))))
        assert c.prune(assign, "a.pos", mask_of(range(len(domain)))) == expected


@pytest.mark.parametrize("within", [True, False])
def test_distance_pruner_keeps_cells_exactly_at_the_limit(within):
    # limits that some cells attain exactly, so a bisection that is off by
    # one at the boundary, or a shortcut that tests < for <=, shows
    room = make_room("r", 0, 0, 4, 3)
    objects = [obj("a", (0.5, 0.4, 0.5)), obj("b", (0.3, 0.4, 0.3))]
    problem = encode([room], [], [], objects, [], SolverConfig(grid_resolution=0.1))
    domain = problem.domains["a.pos"]
    full = mask_of(range(len(domain)))
    rng = random.Random(5)
    for px, pz in [(1.3, 0.9), (0.05, 2.87), (3.0, 1.25)]:
        assign = {"b.pos": (px, pz)}
        d2 = [(x - px) ** 2 + (z - pz) ** 2 for x, z in domain]
        for limit in rng.sample(d2, 20) + [(x - px) ** 2 for x, _ in rng.sample(domain, 5)]:
            prune = _distance_pruner(problem.geo, "a", "b", limit, within)
            keep = [d <= limit if within else d >= limit for d in d2]
            assert prune(assign, "a.pos", full) == mask_of(i for i, ok in enumerate(keep) if ok)


@pytest.mark.parametrize("kind", ["near", "far"])
def test_distance_pruner_memo_keeps_every_call_exact(kind):
    # one pruner called over and over: two partner cells that share their x,
    # in turn, with either endpoint moving, under a narrow mask and then the
    # full one. A pruner that kept state between calls (a cache keyed on the
    # partner's x alone or without the moving endpoint, or a masked result
    # carried over) shows
    room = make_room("r", 0, 0, 4, 3)
    objects = [obj("a", (0.5, 0.4, 0.9)), obj("b", (0.3, 0.4, 0.2))]
    rel = SpatialRelation(kind=kind, subject="a", reference="b")
    problem = encode([room], [], [], objects, [rel], SolverConfig(grid_resolution=0.1))
    c = next(c for c in problem.constraints if c.kind == kind)
    rng = random.Random(11)
    sizes = {u: len(problem.domains[u]) for u in ("a.pos", "b.pos")}
    narrow = {u: mask_of(rng.sample(range(n), 40)) for u, n in sizes.items()}
    full = {u: mask_of(range(n)) for u, n in sizes.items()}
    kept = {}
    for name, masks in (("narrow", narrow), ("full", full)):
        for cell in [(1.3, 0.5), (1.3, 2.4)] * 2:
            for u, partner in (("a.pos", "b.pos"), ("b.pos", "a.pos")):
                assign = {partner: cell}
                domain = problem.domains[u]
                expected = mask_of(
                    i for i in range(sizes[u]) if masks[u] >> i & 1 and c.check({**assign, u: domain[i]})
                )
                assert c.prune(assign, u, masks[u]) == expected, (name, u, cell)
                kept[name, u, cell] = expected
    # the calls a cache would have to tell apart have different answers
    answers = {k[1:]: v for k, v in kept.items() if k[0] == "full"}
    assert len(set(answers.values())) == 4
    assert all(kept["narrow", u, cell] != v for (u, cell), v in answers.items())


def distance_filter(grid, px, pz, limit, within):
    """The cells whose squared center distance to (px, pz) the near
    (within) or far predicate keeps, one cell at a time."""
    d2 = [(x - px) ** 2 + (z - pz) ** 2 for x, z in grid]
    return mask_of(i for i, d in enumerate(d2) if (d <= limit if within else d >= limit))


def distance_keep(grid, px, pz, limit, within):
    """The cells _distance_pruner keeps for near (within) or far: far keeps
    the complement of the cells within the float just below its limit."""
    if within:
        return _distance_keep(grid, px, pz, limit)
    return mask_of(range(len(grid))) ^ _distance_keep(grid, px, pz, math.nextafter(limit, -math.inf))


# quarter-metre coordinates: their differences and squares are exact, so a
# limit can equal a cell's squared distance exactly
SWEEP_GRID = _Grid([k / 4 for k in range(2, 15)], [j / 4 for j in range(1, 12)])


@pytest.mark.parametrize("within", [True, False])
@pytest.mark.parametrize("px", [-0.6, 0.1, 0.5, 1.3, 1.45, 2.0, 3.5, 3.9, 5.2])
def test_distance_keep_sweeps_out_from_the_partner(within, px):
    # partners left of every column, right of every column, on one, and
    # between two, nearer the left one (1.3) or the right one (1.45): the
    # left sweep starts at the column below px, which may be nearer than
    # the column the right sweep starts at
    for pz in (-0.4, 0.25, 1.3, 1.5, 2.75, 3.4):
        for limit in (0.0, 0.3, 1.5**2 + _TOL, 3.0**2 - _TOL, 6.0, 40.0):
            expected = distance_filter(SWEEP_GRID, px, pz, limit, within)
            assert distance_keep(SWEEP_GRID, px, pz, limit, within) == expected, (pz, limit)


@pytest.mark.parametrize("within", [True, False])
@pytest.mark.parametrize(
    "xs, zs",
    [([1.0], [j / 4 for j in range(12)]), ([k / 4 for k in range(12)], [1.0]), ([1.0], [1.0])],
    ids=["one_column", "one_row", "one_cell"],
)
def test_distance_keep_on_a_one_column_or_one_row_grid(within, xs, zs):
    grid = _Grid(xs, zs)
    for px, pz in itertools.product((-0.3, 0.0, 1.0, 1.1, 3.0), (-0.3, 1.0, 1.1, 2.5)):
        for limit in (0.0, 0.25, 1.5**2 + _TOL, 4.0):
            expected = distance_filter(grid, px, pz, limit, within)
            assert distance_keep(grid, px, pz, limit, within) == expected, (px, pz, limit)


def test_far_keeps_whole_columns_from_the_first_one_past_the_limit():
    # dx2 alone reaches the limit on the first column of a side: that side
    # is kept whole without a row test, while the other side is walked
    full = mask_of(range(len(SWEEP_GRID)))
    for px, pz, limit in [(6.0, 1.0, 4.0), (-2.0, 1.0, 4.0), (1.6, 1.0, 0.02), (1.4, 1.0, 0.02)]:
        got = distance_keep(SWEEP_GRID, px, pz, limit, False)
        assert got == distance_filter(SWEEP_GRID, px, pz, limit, False), (px, limit)
    assert distance_keep(SWEEP_GRID, 6.0, 1.0, 4.0, False) == full
    assert 0 < distance_keep(SWEEP_GRID, 1.6, 1.0, 0.02, False) < full


@pytest.mark.parametrize("within", [True, False])
@pytest.mark.parametrize("pz", [1.5, 1.6])
def test_distance_keep_at_limits_attained_on_a_later_column(within, pz):
    # a limit equal to the squared distance of a cell on a column the sweep
    # walks to, not the one it bisects, and one ulp either side of it; with
    # pz on a row the limits include a later column's dx2 alone. A walk
    # that tests < for <= (or <= for <) at either end of the run, or stops
    # near at dx2 == limit, shows
    xs, zs = SWEEP_GRID.xs, SWEEP_GRID.zs
    checked = 0
    for px in (1.0, 1.625):
        kc = bisect.bisect_left(xs, px)
        later = [k for k in range(len(xs)) if k not in (kc, kc - 1)]
        for k, z in itertools.product(later, zs):
            attained = (xs[k] - px) ** 2 + (z - pz) ** 2
            for limit in (attained, math.nextafter(attained, math.inf), math.nextafter(attained, -math.inf)):
                expected = distance_filter(SWEEP_GRID, px, pz, limit, within)
                assert distance_keep(SWEEP_GRID, px, pz, limit, within) == expected, (px, k, z, limit)
                checked += 1
    assert checked == 2 * 11 * 11 * 3


def packed_distance_scene():
    """Two 1.6 m squares cannot be near: centers within 1.5 m would overlap.

    Only non-collision makes the first rung unsat, which no distance or
    height bound shows, so the search has to prove it.
    """
    a, b, c = obj("a", (1.6, 0.4, 1.6)), obj("b", (1.6, 0.4, 1.6)), obj("c", (0.4, 0.4, 0.4))
    rels = [
        SpatialRelation(kind="near", subject="b", reference="a", priority="enrichment"),
        SpatialRelation(kind="far", subject="c", reference="a", priority="enrichment"),
    ]
    return [a, b, c], rels


def test_a_search_proves_the_packed_distance_scene_and_relaxes_its_first_rung():
    # no bound shows the near unsat, so the first rung is searched; dropping
    # the first relaxable constraint solves it
    objects, rels = packed_distance_scene()
    problem = encode([room4()], [], [], objects, rels, GRID)
    assert _static_core(problem, frozenset()) is None
    solution = solve_with_relaxation(problem)
    assert solution.relaxed == [problem.relax_order()[0].id]


def test_side_pruner_at_its_thresholds():
    # partners SIDE_LONG_MAX from a grid cell along an axis, and on its
    # line across the other, then _TOL and one ulp either side of each, for
    # every facing of the reference and either endpoint moving
    room = make_room("r", 0, 0, 2.5, 2)
    objects = [obj("a", (0.5, 0.4, 0.3)), obj("b", (0.4, 0.4, 0.6))]
    rel = SpatialRelation(kind="side_of", subject="a", reference="b")
    problem = encode([room], [], [], objects, [rel], SolverConfig(grid_resolution=0.1))
    c = next(c for c in problem.constraints if c.kind == "side_of")
    for moving, partner in (("a", "b"), ("b", "a")):
        grid = problem.geo.grids[moving]
        x, z = grid.xs[len(grid.xs) // 2], grid.zs[len(grid.zs) // 2]
        for dx, dz in ((0.0, SIDE_LONG_MAX), (-SIDE_LONG_MAX, 0.0)):
            for px, pz in itertools.product(around(x + dx), around(z + dz)):
                for facing in sorted(DIRECTION_VECTORS):
                    assign = {"b.dir": facing, f"{partner}.pos": (px, pz)}
                    got, expected = set_and_check(problem, c, assign, f"{moving}.pos")
                    assert got == expected, (moving, facing, px, pz)


def agreement_scene(rng, kind):
    """Two objects in room4 and the relations for kind, the last of them kind.

    ``above`` also mounts its subject, at or near the reference's top
    height, so its bottom falls on either side of the SUPPORT_EPS band; an
    ``in`` subject is drawn about its container's size, so it sometimes fits.
    """
    b_size = tuple(rng.randint(5, 200) / 100 for _ in range(3))
    if kind == "in":
        a_size = tuple(round(v * rng.uniform(0.3, 1.1), 2) or 0.01 for v in b_size)
    else:
        a_size = tuple(rng.randint(5, 200) / 100 for _ in range(3))
    if kind == "above":
        mount = max(0.0, b_size[1] + rng.choice([-0.3, -0.01, -0.005, 0.0, 0.005, 0.3]))
    else:
        mount = rng.choice([0, 0.3, 1.0, 1.4, 2.0])
    objects = [obj("a", a_size, mount_height=str(mount)), obj("b", b_size)]
    rel = SpatialRelation(kind=kind, subject="a", reference=None if kind in UNARY_KINDS else "b")
    if kind == "above":
        return objects, [SpatialRelation(kind="mounted_on_wall", subject="a"), rel]
    return objects, [rel]


# how far (along, across) the subject's center lies from the reference's,
# measured along and across the reference's facing, for the relative kinds
AGREEMENT_SPREAD = {
    "near": (-3.5, 3.5, 3.5),
    "far": (-3.5, 3.5, 3.5),
    "on_top_of": (-1.2, 1.2, 1.2),
    "in": (-0.4, 0.4, 0.4),
    "above": (-1.2, 1.2, 1.2),
    # ahead of or behind the reference and off its facing ray sideways,
    # on both sides of the reach
    "in_front_of": (-1.0, 4.0, 1.2),
    "side_of": (-1.0, 1.0, 1.0),
    "center_aligned": (-2.0, 2.0, 2.0),
    "face_to": (0.5, 3.0, 1.0),
}
OPPOSITE = {"north": "south", "south": "north", "east": "west", "west": "east"}


def agreement_placement(rng, kind, geo):
    """(a.pos, a.dir, b.pos, b.dir) for one draw, on a 0.01 m lattice."""
    b_dir, a_dir = rng.choice(sorted(DIRECTION_VECTORS)), rng.choice(sorted(DIRECTION_VECTORS))
    bx, bz = rng.randint(0, 400) / 100, rng.randint(0, 400) / 100
    if kind == "edge":
        return (rng.randint(0, 400) / 100, rng.randint(0, 400) / 100), a_dir, (bx, bz), b_dir
    if kind == "center":
        return (rng.randint(120, 280) / 100, rng.randint(120, 280) / 100), a_dir, (bx, bz), b_dir
    if kind == "mounted_on_wall":
        # the back face on the wall a faces away from, or up to 0.015 off it
        fx, fz = geo.footprints[("a", a_dir)]
        off, free = rng.randint(-3, 3) / 200, rng.randint(0, 400) / 100
        ax, az = {
            "north": (free, fz / 2 + off),
            "south": (free, 4 - fz / 2 + off),
            "east": (fx / 2 + off, free),
            "west": (4 - fx / 2 + off, free),
        }[a_dir]
        return (ax, az), a_dir, (bx, bz), b_dir
    lo, hi, width = AGREEMENT_SPREAD[kind]
    along = rng.randint(round(lo * 100), round(hi * 100)) / 100
    across = rng.choice([0.0, rng.randint(round(-width * 100), round(width * 100)) / 100])
    fvx, fvz = DIRECTION_VECTORS[b_dir]
    if kind == "face_to" and rng.random() < 0.5:
        a_dir = OPPOSITE[b_dir]
    return (bx + along * fvx - across * fvz, bz + along * fvz + across * fvx), a_dir, (bx, bz), b_dir


@pytest.mark.parametrize("kind", sorted(RELATION_KINDS))
def test_relation_predicate_agrees_with_the_validator(kind):
    # the solver's predicate and the validator's check, written apart, agree
    # on seeded placements on both sides of each threshold. For in_front_of
    # the reach runs FRONT_MAX past the reference's front face: bounding it
    # by the longer half-side instead let a long reference facing along its
    # short axis reach up to 0.7 m further in the solver than in the validator
    rng = random.Random(f"agreement:{kind}")
    outcomes = collections.Counter()
    for _ in range(150):
        objects, relations = agreement_scene(rng, kind)
        try:
            problem = encode([room4()], [], [], objects, relations, GRID)
        except EncodingError:
            # a draft the pre-solve rules reject never reaches the predicate
            assert compatibility_conflicts(objects, relations), objects
            continue
        check = next(c.check for c in problem.constraints if c.relation_index == len(relations) - 1)
        for _ in range(20):
            a_pos, a_dir, b_pos, b_dir = agreement_placement(rng, kind, problem.geo)
            env = EnvironmentSpec(
                id="e",
                task_id="t",
                trajectory_id="x",
                rooms=[room4()],
                objects=objects,
                relations=relations,
                placements=[
                    Placement(object="a", position=(a_pos[0], problem.geo.base_y["a"], a_pos[1]), direction=a_dir),
                    Placement(object="b", position=(b_pos[0], problem.geo.base_y["b"], b_pos[1]), direction=b_dir),
                ],
            )
            holds = check({"a.pos": a_pos, "a.dir": a_dir, "b.pos": b_pos, "b.dir": b_dir})
            reason = _relation_holds(env, len(relations) - 1)
            assert holds == (reason is None), (objects, env.placements, reason)
            outcomes[holds] += 1
    assert outcomes[True] > 300 and outcomes[False] > 300, outcomes


def test_the_solver_keeps_an_in_tie_wherever_the_room_sits():
    # the tie of test_an_in_tie_passes_wherever_the_room_sits: the solver's
    # predicate gives it the validator's slack
    rng = random.Random(0)
    objects = [obj("crate", (0.5, 0.5, 0.5)), obj("toy", (0.2, 0.2, 0.2))]
    relations = [SpatialRelation(kind="in", subject="toy", reference="crate")]
    for dx, dz in [(0.0, 0.0)] + [(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(2000)]:
        problem = encode([make_room("r", dx, dz, 4 + dx, 4 + dz)], [], [], objects, relations, GRID)
        check = next(c.check for c in problem.constraints if c.kind == "in")
        x, z = 2 + dx, 2 + dz
        tie = {"crate.pos": (x, z), "crate.dir": "north", "toy.dir": "north"}
        assert check({**tie, "toy.pos": (x + 0.25 + SUPPORT_EPS - 0.1, z)}), (dx, dz)


def support_scene(rng):
    """A seeded one-room scene with an object for each support: floor
    objects, a cup on a table, a toy in a crate and a mounted picture."""
    side = rng.choice([3.5, 4.0, 4.5])
    objects = [
        obj("table", (rng.choice([0.8, 1.0, 1.2]), rng.choice([0.45, 0.75]), rng.choice([0.6, 0.8]))),
        obj("crate", (rng.choice([0.5, 0.7]), rng.choice([0.3, 0.6]), rng.choice([0.4, 0.6]))),
        obj("stool", (rng.choice([0.3, 0.4]), rng.choice([0.4, 0.5]), rng.choice([0.3, 0.4]))),
        obj("cup", (rng.choice([0.1, 0.2]), rng.choice([0.1, 0.15]), rng.choice([0.1, 0.2]))),
        obj("toy", (rng.choice([0.15, 0.2]), rng.choice([0.1, 0.25]), rng.choice([0.1, 0.2]))),
        obj("picture", (rng.choice([0.4, 0.6]), 0.4, 0.05), mount_height=str(rng.choice([1.2, 1.4, 1.6]))),
    ]
    relations = [
        SpatialRelation(kind="on_top_of", subject="cup", reference="table"),
        SpatialRelation(kind="in", subject="toy", reference="crate"),
        SpatialRelation(kind="mounted_on_wall", subject="picture"),
        SpatialRelation(kind=rng.choice(["near", "far"]), subject="stool", reference="table", priority="enrichment"),
    ]
    return make_room("r", 0, 0, side, side), objects, relations


def test_solved_scenes_rest_each_object_where_its_support_relation_says():
    # the solver's _support_plan sets each height from the object's support
    # relation; the classifier that writes the metadata location and the
    # validator's floating check must read the same support back
    rng = random.Random("support")
    for trial in range(40):
        room, objects, relations = support_scene(rng)
        problem = encode([room], [], [], objects, relations, SolverConfig(grid_resolution=0.25, seed=trial))
        solution = solve_with_relaxation(problem)
        env = EnvironmentSpec(
            id="e", task_id="t", trajectory_id="x", rooms=[room], objects=objects,
            relations=relations, placements=solution.placements,
        )
        expected = {o.id: "floor" for o in objects}
        for rel in relations:
            if rel.kind == "on_top_of":
                expected[rel.subject] = f"{rel.reference}_top"
            elif rel.kind == "in":
                expected[rel.subject] = f"{rel.reference}_in"
            elif rel.kind == "mounted_on_wall":
                expected[rel.subject] = "wall"
        meta = rebuild_metadata(env)
        assert {o.id: meta[(o.id, "location")] for o in objects} == expected, (trial, env.placements)
        assert check_entities(env) == [], trial


def test_grid_comb_is_one_bit_per_column():
    for nx, nz in itertools.product(range(1, 6), repeat=2):
        grid = _Grid([float(k) for k in range(nx)], [float(j) for j in range(nz)])
        assert grid.comb == sum(1 << (k * nz) for k in range(nx)), (nx, nz)
    grid = _Grid([k / 10 for k in range(110)], [j / 10 for j in range(90)])
    assert grid.comb == sum(1 << (k * 90) for k in range(110))


def set_and_check(problem, c, assign, u):
    """c's prune on every cell of u, and the cells whose value c's predicate keeps."""
    domain = problem.domains[u]
    expected = mask_of(i for i, v in enumerate(domain) if c.check({**assign, u: v}))
    return c.prune(assign, u, mask_of(range(len(domain)))), expected


def around(v):
    """v, v +- _TOL and the floats one ulp either side of v."""
    return [v, v + _TOL, v - _TOL, math.nextafter(v, math.inf), math.nextafter(v, -math.inf)]


def center_with_edge(edge, half, side):
    """A center whose box edge center + side * half (side -1 or 1) is the
    float edge, or the float just past it where none is."""
    x = edge - side * half
    while x + side * half > edge:
        x = math.nextafter(x, -math.inf)
    while x + side * half < edge:
        x = math.nextafter(x, math.inf)
    return x


@pytest.mark.parametrize(
    "room_side, a_size, b_size",
    [
        ((2.0, 1.5), (0.3, 0.5, 0.4), (0.9, 0.5, 0.7)),  # moving narrower than fixed
        ((2.0, 1.5), (0.9, 0.5, 0.7), (0.3, 0.5, 0.2)),  # moving wider than fixed
        ((2.0, 1.5), (0.3, 0.5, 0.4), (2.0, 0.5, 1.5)),  # fixed as large as the room
        ((0.4, 2.0), (0.4, 0.5, 0.4), (0.3, 0.5, 0.5)),  # one x coordinate
        ((2.0, 1.5), (1e-9, 0.5, 0.4), (0.9, 0.5, 0.7)),  # thinner than the rounding margin
    ],
)
def test_non_collision_pruner_at_the_obstacle_edges(room_side, a_size, b_size):
    # the fixed box's edges exactly at a grid coordinate's c - h and c + h,
    # _TOL and one ulp either side, so a run that is off by one cell shows
    room = make_room("r", 0, 0, *room_side)
    problem = encode([room], [], [], [obj("a", a_size), obj("b", b_size)], [], SolverConfig(grid_resolution=0.1))
    c = next(c for c in problem.constraints if c.kind == "non_collision")
    grid = problem.geo.grids["a"]
    fx, fz = footprint(b_size, "north")
    mid = (room_side[0] / 2, room_side[1] / 2)
    for direction in ("north", "east"):
        hx, hz = (e / 2 for e in footprint(a_size, direction))
        placements = [mid, (-10.0, mid[1]), (mid[0], 50.0)]  # overlapping, wholly outside
        for axis, cs, h, half in ((0, grid.xs, hx, fx / 2), (1, grid.zs, hz, fz / 2)):
            for coord in (cs[0], cs[len(cs) // 2], cs[-1]):
                for edge in around(coord - h) + around(coord + h):
                    for side in (-1, 1):
                        pos = list(mid)
                        pos[axis] = center_with_edge(edge, half, side)
                        placements.append(tuple(pos))
        for pos in placements:
            assign = {"a.dir": direction, "b.dir": "north", "b.pos": pos}
            got, expected = set_and_check(problem, c, assign, "a.pos")
            assert got == expected, (direction, pos)


@pytest.mark.parametrize("moving", ["a", "b"])
@pytest.mark.parametrize(
    "room_side, a_size, b_size",
    [
        ((2.0, 1.5), (0.3, 0.1, 0.4), (0.9, 0.5, 0.7)),  # subject narrower than its support
        ((2.0, 1.5), (0.9, 0.1, 0.7), (0.3, 0.5, 0.2)),  # subject wider than its support
        ((2.0, 1.5), (0.3, 0.1, 0.4), (2.0, 0.5, 1.5)),  # support as large as the room
        ((0.4, 2.0), (0.4, 0.1, 0.4), (0.3, 0.5, 0.5)),  # one x coordinate
        ((2.0, 1.5), (1e-9, 0.1, 0.4), (0.9, 0.5, 0.7)),  # a subject thinner than the rounding margin
        ((2.0, 1.5), (0.3, 0.1, 0.4), (1e-9, 0.5, 0.7)),  # a support thinner than it
        ((2.0, 1.5), (1e-17, 0.1, 0.4), (0.9, 0.5, 0.7)),  # a subject whose span is a point
    ],
)
def test_resting_pruner_at_the_support_edges(room_side, a_size, b_size, moving):
    # a on top of b; the placed box's edges exactly at a grid coordinate's
    # c - h and c + h of the moving one, _TOL and one ulp either side, so a
    # touch run that is off by one cell shows
    room = make_room("r", 0, 0, *room_side)
    relations = [SpatialRelation(kind="on_top_of", subject="a", reference="b")]
    objects = [obj("a", a_size), obj("b", b_size)]
    problem = encode([room], [], [], objects, relations, SolverConfig(grid_resolution=0.1))
    c = next(c for c in problem.constraints if c.kind == "on_top_of")
    fixed = "b" if moving == "a" else "a"
    grid = problem.geo.grids[moving]
    fx, fz = footprint(a_size if fixed == "a" else b_size, "north")
    mid = (room_side[0] / 2, room_side[1] / 2)
    for direction in ("north", "east"):
        hx, hz = (e / 2 for e in footprint(a_size if moving == "a" else b_size, direction))
        placements = [mid, (-10.0, mid[1]), (mid[0], 50.0)]  # overlapping, wholly outside
        for axis, cs, h, half in ((0, grid.xs, hx, fx / 2), (1, grid.zs, hz, fz / 2)):
            for coord in (cs[0], cs[len(cs) // 2], cs[-1]):
                for edge in around(coord - h) + around(coord + h):
                    for side in (-1, 1):
                        pos = list(mid)
                        pos[axis] = center_with_edge(edge, half, side)
                        placements.append(tuple(pos))
        for pos in placements:
            assign = {f"{moving}.dir": direction, f"{fixed}.dir": "north", f"{fixed}.pos": pos}
            got, expected = set_and_check(problem, c, assign, f"{moving}.pos")
            assert got == expected, (direction, pos)


def resting_cells(grid, hx, hz, f, s_moves, mask, enough):
    """The cells of mask whose footprint overlaps the fixed box f and that
    enough(w, width, d, depth) keeps, tested one cell at a time."""
    kept = 0
    for i in range(mask.bit_length()):
        if not mask >> i & 1:
            continue
        x, z = grid[i]
        lo_x, hi_x, lo_z, hi_z = x - hx, x + hx, z - hz, z + hz
        w = min(hi_x, f[3]) - max(lo_x, f[0])
        d = min(hi_z, f[5]) - max(lo_z, f[2])
        if w > 0 and d > 0:
            width, depth = (hi_x - lo_x, hi_z - lo_z) if s_moves else (f[3] - f[0], f[5] - f[2])
            if enough(w, width, d, depth):
                kept |= 1 << i
    return kept


@pytest.mark.parametrize("step", [0.5, 0.25, 0.1, 0.05, 0.025])
def test_resting_pruner_equals_a_per_cell_test_of_enough(step):
    # seeded subjects and supports, thin ones among them, with either one
    # moving, the fixed one inside the room or wholly outside it (an empty
    # touch run), and masks from empty to full: the pruner keeps the cells
    # the per-cell test keeps and calls enough on the same cells, in order
    rng = random.Random(round(step * 1000))
    seen = collections.Counter()

    def extent():
        if rng.random() < 0.2:
            return rng.choice([1e-17, 1e-9])  # a point, and thinner than the rounding margin
        return round(rng.uniform(0.05, 0.9), 2)

    def recorder(calls):
        def enough(w, width, d, depth):
            calls.append((w, width, d, depth))
            return w * d >= SUPPORT_OVERLAP_FRAC * width * depth - _TOL

        return enough

    for _ in range(16):
        room = make_room("r", 0, 0, round(rng.uniform(1.0, 2.5), 2), round(rng.uniform(1.0, 2.5), 2))
        objects = [obj("a", (extent(), 0.1, extent())), obj("b", (extent(), 0.5, extent()))]
        relations = [SpatialRelation(kind="on_top_of", subject="a", reference="b")]
        problem = encode([room], [], [], objects, relations, SolverConfig(grid_resolution=step))
        geo = problem.geo
        for moving, fixed in (("a", "b"), ("b", "a")):
            grid = geo.grids[moving]
            where = rng.choice(["inside", "inside", "west", "north"])
            pos = {
                "inside": (rng.uniform(0, room.x_max), rng.uniform(0, room.z_max)),
                "west": (-10.0, rng.uniform(0, room.z_max)),
                "north": (rng.uniform(0, room.x_max), 50.0),
            }[where]
            assign = {
                f"{moving}.dir": rng.choice(sorted(DIRECTION_VECTORS)),
                f"{fixed}.dir": rng.choice(sorted(DIRECTION_VECTORS)),
                f"{fixed}.pos": pos,
            }
            share = rng.choice([0.0, 0.05, 0.5, 1.0])
            mask = sum(1 << i for i in range(len(grid)) if rng.random() < share)
            got_calls, want_calls = [], []
            got = _resting_pruner(geo, "a", "b", recorder(got_calls))(assign, f"{moving}.pos", mask)
            hx, hz = geo.half_footprint(moving, assign)
            f = geo.placed_box(fixed, assign)
            want = resting_cells(grid, hx, hz, f, moving == "a", mask, recorder(want_calls))
            assert got == want, (moving, assign, share)
            assert got_calls == want_calls, (moving, assign, share)
            seen[where, bool(got)] += 1
    assert seen["inside", True] and seen["west", False] + seen["north", False]


def float_rank(v: float) -> int:
    """An int that orders like the float v: adjacent floats rank one apart."""
    i = struct.unpack("<q", struct.pack("<d", v))[0]
    return i if i >= 0 else -(i & (2**63 - 1))


def from_rank(k: int) -> float:
    """The float of rank k."""
    return struct.unpack("<d", struct.pack("<q", k if k >= 0 else -k | -(2**63)))[0]


def flip_point(holds, lo: float, hi: float) -> tuple[float, float]:
    """The adjacent floats a < b in [lo, hi] with holds(a) != holds(b), by
    bisection on the float order, for a holds that flips once."""
    a, b, first = float_rank(lo), float_rank(hi), holds(lo)
    while b - a > 1:
        m = (a + b) // 2
        if holds(from_rank(m)) == first:
            a = m
        else:
            b = m
    return from_rank(a), from_rank(b)


# per wall kind, moving sizes whose cells come near its thresholds: a back
# 0.01 from the wall (mounted_on_wall), a side on it (room_containment) or
# 0.3 from it (edge)
WALL_SIZES = {
    "room_containment": [(0.2, 0.5, 0.4)],
    "edge": [(0.2, 0.5, 0.4)],
    "mounted_on_wall": [(0.2, 0.5, 0.38), (0.2, 0.5, 0.22)],
}


# a narrow room with one x coordinate; rooms under 1 m wide, and rooms whose
# far walls are at 0, where a far wall's x_max - (x + h) can land exactly on
# the edge and mount thresholds
@pytest.mark.parametrize(
    "kind, bounds",
    [(kind, (0.0, 0.0, 2.0, 2.0)) for kind in sorted(WALL_SIZES)]
    + [
        ("room_containment", (0.0, 0.0, 0.25, 2.0)),
        ("edge", (0.0, 0.0, 0.9, 2.0)),
        ("edge", (0.0, 0.0, 2.0, 0.9)),
        ("mounted_on_wall", (-2.0, -2.0, 0.0, 0.0)),
    ],
)
def test_wall_pruners_at_their_thresholds(kind, bounds):
    # each room bound in turn moves, by at most 1e-7 so the grid stays, to
    # the two adjacent floats where the predicate flips for a cell: there a
    # wall test's float is exactly at its threshold where a float can be,
    # else one ulp either side; and _TOL further either way
    relations = [] if kind == "room_containment" else [SpatialRelation(kind=kind, subject="a")]
    config = SolverConfig(grid_resolution=0.1)
    for size in WALL_SIZES[kind]:

        def constraint(room_bounds):
            problem = encode([make_room("r", *room_bounds)], [], [], [obj("a", size)], relations, config)
            return problem, next(c for c in problem.constraints if c.kind == kind)

        cells = list(constraint(bounds)[0].domains["a.pos"])
        flips = 0
        for direction, wall in itertools.product(sorted(DIRECTION_VECTORS), range(4)):

            def moved(v):
                return bounds[:wall] + (bounds[wall] + v,) + bounds[wall + 1 :]

            def holds(v, cell):
                return constraint(moved(v))[1].check({"a.dir": direction, "a.pos": cell})

            before, after = constraint(moved(-1e-7))[1], constraint(moved(1e-7))[1]
            # one cell per coordinate across the wall: its neighbours along it flip alike
            flipping = {
                cell[wall % 2]: cell
                for cell in cells
                if before.check({"a.dir": direction, "a.pos": cell})
                != after.check({"a.dir": direction, "a.pos": cell})
            }
            for cell in flipping.values():
                flips += 1
                for v in flip_point(lambda v: holds(v, cell), -1e-7, 1e-7):
                    for w in (v, v - _TOL, v + _TOL):
                        problem, c = constraint(moved(w))
                        got, expected = set_and_check(problem, c, {"a.dir": direction}, "a.pos")
                        assert got == expected, (size, direction, wall, w)
        assert flips


def test_fixture_pruners_make_few_overlap_calls(living_room_dir, tmp_path, monkeypatch):
    # a work counter, not a timer: per-coordinate scans made 21 132
    # _overlap_1d calls in this run, runs found by bisection 694
    import envcover.solver
    from envcover.pipeline import run_all

    calls = 0
    overlap_1d = envcover.solver._overlap_1d

    def counted(*args):
        nonlocal calls
        calls += 1
        return overlap_1d(*args)

    monkeypatch.setattr(envcover.solver, "_overlap_1d", counted)
    run_all(str(tmp_path / "run"), str(living_room_dir), grid=0.05)
    assert 0 < calls < 1000


# ---------------------------------------------------------------------------
# value order
# ---------------------------------------------------------------------------


def eager_forward_fisher_yates(rng, n):
    """range(n) shuffled in full: step k swaps position k with a position
    drawn from k on."""
    perm = list(range(n))
    for k in range(n):
        j = k + rng.randrange(n - k)
        perm[k], perm[j] = perm[j], perm[k]
    return perm


def test_value_order_read_in_full_is_the_eager_shuffle():
    sizes = [0, 1, 2, 3]
    for k in range(2, 12):
        sizes += [2**k - 1, 2**k, 2**k + 1]
    for n in sizes:
        lazy = list(_ValueOrder(random.Random(f"7:{n}"), n))
        assert lazy == eager_forward_fisher_yates(random.Random(f"7:{n}"), n), n
        assert sorted(lazy) == list(range(n)), n


def test_value_order_replays_its_drawn_prefix():
    rng = random.Random("3:sofa.pos")
    order = _ValueOrder(rng, 1000)
    prefix = list(itertools.islice(order, 10))
    state = rng.getstate()
    assert list(itertools.islice(order, 10)) == prefix
    assert rng.getstate() == state
    assert list(order) == eager_forward_fisher_yates(random.Random("3:sofa.pos"), 1000)

    # a second solve of one problem, as a later relaxation rung makes, draws nothing
    sofa, book = obj("sofa", (2.0, 0.8, 0.9)), obj("book", (0.25, 0.04, 0.18))
    rels = [SpatialRelation(kind="on_top_of", subject="book", reference="sofa")]
    problem = encode([room4()], [], [], [sofa, book], rels, SolverConfig(grid_resolution=0.1, seed=3))
    first = solve(problem)
    drawn = {vid: list(problem.value_order(vid).drawn) for vid in problem.variables}
    assert solve(problem).assignments == first.assignments
    assert {vid: problem.value_order(vid).drawn for vid in problem.variables} == drawn


def test_fixture_search_draws_a_small_share_of_the_value_order(living_room_dir, tmp_path, monkeypatch):
    import envcover.scene
    from envcover.pipeline import run_all

    problems = []

    def keep(*args):
        problems.append(encode(*args))
        return problems[-1]

    monkeypatch.setattr(envcover.scene, "encode", keep)
    run_all(str(tmp_path / "run"), str(living_room_dir), grid=0.05)
    assert len({id(p.config) for p in problems}) == 1
    # the scenes share their config's orders, so each counts once
    orders = {id(o): o for p in problems for o in map(p.value_order, p.variables)}.values()
    drawn = sum(len(order.drawn) for order in orders)
    cells = sum(order.n for order in orders)
    # the three scenes' 24 distinct orders draw 175 indices over 117 632
    # cells: a search that never backtracks reads past only the cells
    # forward checking cleared
    assert drawn * 100 < cells


def test_an_unrelated_object_leaves_every_other_value_order_unchanged():
    sofa, book = obj("sofa", (2.0, 0.8, 0.9)), obj("book", (0.25, 0.04, 0.18))
    rels = [SpatialRelation(kind="on_top_of", subject="book", reference="sofa")]
    # two equal configs: under one, both problems would read the same orders
    base = encode([room4()], [], [], [sofa, book], rels, SolverConfig(grid_resolution=0.25, seed=3))
    # the lamp's footprint puts its variables between the sofa's and the book's
    lamp = obj("lamp", (0.3, 1.2, 0.4))
    grown = encode([room4()], [], [], [sofa, lamp, book], rels, SolverConfig(grid_resolution=0.25, seed=3))
    assert grown.variables.index("lamp.pos") < grown.variables.index("book.dir")
    for vid in base.variables:
        assert grown.value_order(vid) is not base.value_order(vid)
        assert list(grown.value_order(vid)) == list(base.value_order(vid)), vid


def test_the_config_store_is_no_settable_state():
    sofa, book = obj("sofa", (2.0, 0.8, 0.9)), obj("book", (0.25, 0.04, 0.18))
    rels = [SpatialRelation(kind="on_top_of", subject="book", reference="sofa")]
    a, b = SolverConfig(grid_resolution=0.25, seed=3), SolverConfig(grid_resolution=0.25, seed=3)
    solve(encode([room4()], [], [], [sofa], [], a))
    solve(encode([make_room("r", 0, 0, 3, 5)], [], [], [sofa, book], rels, b))
    assert a._grids.keys() != b._grids.keys() and a._orders.keys() != b._orders.keys()
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == "SolverConfig(grid_resolution=0.25, seed=3, max_backtracks=50000)"
    fresh = dataclasses.replace(a)
    assert fresh == a and fresh._grids == {} and fresh._orders == {}
    with pytest.raises(TypeError):
        SolverConfig(_orders={})


def fixture_scene_solutions(selected, catalog, schema, records, config_of):
    """The encoded problem and Solution of each selected fixture scene, the
    i-th built under config_of(i)."""
    import envcover.scene
    from envcover.providers import ReplayChannel, SceneProvider
    from envcover.scene import build_environment

    problems, solutions = [], []

    def keep(problem):
        problems.append(problem)
        solutions.append(solve_with_relaxation(problem))
        return solutions[-1]

    provider = SceneProvider(ReplayChannel(records))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(envcover.scene, "solve_with_relaxation", keep)
        for i, trajectory in enumerate(selected):
            build_environment(provider, catalog, schema, trajectory, f"env-{i:03d}", config_of(i))
    return problems, solutions


@pytest.mark.parametrize("grid", [0.2, 0.05])
def test_the_scenes_of_a_build_solve_alike_under_one_config_or_one_each(
    grid, selected_trajectories, catalog, task_schema, cassette_records
):
    _, selected = selected_trajectories
    shared = SolverConfig(grid_resolution=grid)
    inputs = (selected, catalog, task_schema, cassette_records)
    problems, together = fixture_scene_solutions(*inputs, lambda i: shared)
    _, apart = fixture_scene_solutions(*inputs, lambda i: SolverConfig(grid_resolution=grid))
    assert len(together) == len(selected) > 1
    # placements, door and window positions, relaxed lists and stats
    assert together == apart
    # the later scenes replayed orders and grid lists the first one made

    def orders(p):
        return {id(p.value_order(vid)) for vid in p.variables}

    def grid_lists(p):
        return {id(axis) for g in p.geo.grids.values() for axis in (g.xs, g.zs)}

    first, later = problems[0], problems[1:]
    assert any(orders(p) & orders(first) for p in later)
    assert any(grid_lists(p) & grid_lists(first) for p in later)


_SOLVE_ONE_SCENE = """
import json
from envcover.environment import ObjectSpec, SpatialRelation, make_room
from envcover.solver import SolverConfig, encode, solve_with_relaxation

objects = [
    ObjectSpec(id=i, description=i, room="r", size=size, category="enrichment")
    for i, size in [("sofa", (2.0, 0.8, 0.9)), ("table", (1.0, 0.5, 0.6)), ("book", (0.25, 0.04, 0.18))]
]
relations = [
    SpatialRelation(kind="on_top_of", subject="book", reference="table"),
    SpatialRelation(kind="near", subject="table", reference="sofa"),
]
config = SolverConfig(grid_resolution=0.1, seed=11)
solution = solve_with_relaxation(encode([make_room("r", 0, 0, 4, 4)], [], [], objects, relations, config))
print(json.dumps(solution.assignments, sort_keys=True))
"""


def test_the_solution_does_not_depend_on_the_hash_seed():
    src = str(Path(envcover.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("0", "4242"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", _SOLVE_ONE_SCENE], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert json.loads(outputs[0]) and outputs[0] == outputs[1]


def differential_instance(rng):
    """A small scene mixing pruned and unpruned relation kinds."""
    side = rng.choice([3.0, 3.5, 4.0])
    room = make_room("r", 0, 0, side, side)
    objects = [
        obj(f"o{i}", (rng.choice([0.4, 0.6, 0.9]), rng.choice([0.4, 0.8]), rng.choice([0.4, 0.6])))
        for i in range(3)
    ] + [obj(f"s{i}", (0.2, rng.choice([0.05, 0.2]), 0.15)) for i in range(2)]
    relations = []
    for small in ("s0", "s1"):
        kind = rng.choice(["on_top_of", "in", "mounted_on_wall", None])
        if kind == "mounted_on_wall":
            relations.append(SpatialRelation(kind=kind, subject=small))
        elif kind is not None:
            relations.append(SpatialRelation(kind=kind, subject=small, reference=rng.choice(["o0", "o1"])))
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(
            ["near", "far", "edge", "center", "side_of", "center_aligned", "in_front_of"]
        )
        a, b = rng.sample(["o0", "o1", "o2"], 2)
        priority = rng.choice(["task", "enrichment"])
        reference = None if kind in UNARY_KINDS else b
        relations.append(SpatialRelation(kind=kind, subject=a, reference=reference, priority=priority))
    return [room], objects, relations


def relaxation_outcome(problem, relax=solve_with_relaxation):
    try:
        solution = relax(problem)
    except (CoreUnsat, SolverTimeout) as exc:
        return type(exc).__name__, str(exc)
    return solution.status, solution.assignments, solution.stats, solution.relaxed


def contradiction_instance(rng):
    """Two objects that must be both near and far: the first rung is unsat."""
    a = obj("a", (rng.choice([0.4, 0.6, 0.8]), 0.4, rng.choice([0.4, 0.6])))
    b = obj("b", (rng.choice([0.4, 0.6]), 0.3, rng.choice([0.4, 0.6, 0.8])))
    relations = [
        SpatialRelation(kind="near", subject="b", reference="a", priority="enrichment"),
        SpatialRelation(kind="far", subject="b", reference="a", priority="enrichment"),
        SpatialRelation(kind="edge", subject=rng.choice(["a", "b"]), priority="enrichment"),
    ]
    return [room4()], [a, b], relations


def seeded_search_instances():
    """24 seeded (rooms, objects, relations, config) instances, in a fixed order."""
    rng = random.Random(20261018)
    # (instance, backtrack budget): the mixed scenes may thrash, so a small
    # budget keeps their timeouts cheap; unsat proofs need the default one
    instances = [(differential_instance(rng), 300) for _ in range(12)]
    instances += [(contradiction_instance(rng), 50000) for _ in range(4)]
    instances += [(([room], objects, relations), 50000) for room, objects, relations in
                  (random_mini_instance(rng) for _ in range(8))]
    for trial, ((rooms, objects, relations), budget) in enumerate(instances):
        config = SolverConfig(grid_resolution=0.25, seed=trial, max_backtracks=budget)
        yield rooms, objects, relations, config


def test_pruners_change_no_search_outcome():
    for trial, (rooms, objects, relations, config) in enumerate(seeded_search_instances()):
        pruned = encode(rooms, [], [], objects, relations, config)
        generic = encode(rooms, [], [], objects, relations, config)
        generic.constraints = [dataclasses.replace(c, prune=None) for c in generic.constraints]
        assert relaxation_outcome(pruned) == relaxation_outcome(generic), f"instance {trial}"


# sha256 of the canonical JSON of every seeded instance's relaxation outcome:
# status, assignments, stats and relaxed list, or the exception. A change
# that means to alter search outcomes (a new search order, backjumping)
# updates it on purpose, as it does PINNED_RUN_DIGESTS.
PINNED_SEARCH_OUTCOMES = "c049cc7560ff49cf994cff22db3d8cb3c213b557dba3dde3419068a4ee548bf1"


def test_one_config_solves_each_problem_as_a_fresh_one_would():
    instances = [(rooms, objects, relations) for rooms, objects, relations, _ in seeded_search_instances()]
    shared = SolverConfig(grid_resolution=0.25, seed=5, max_backtracks=300)
    fresh = [dataclasses.replace(shared) for _ in instances]
    alone = [
        relaxation_outcome(encode(rooms, [], [], objects, relations, config))
        for (rooms, objects, relations), config in zip(instances, fresh)
    ]
    ids = list(range(len(instances)))
    for i in ids + ids[::-1]:
        rooms, objects, relations = instances[i]
        assert relaxation_outcome(encode(rooms, [], [], objects, relations, shared)) == alone[i], i
    # the instances reuse variable ids and room sides, so they shared orders
    assert len(shared._orders) < sum(len(config._orders) for config in fresh)


def test_search_outcomes_are_pinned():
    outcomes = [
        relaxation_outcome(encode(rooms, [], [], objects, relations, config))
        for rooms, objects, relations, config in seeded_search_instances()
    ]
    canonical = json.dumps(outcomes, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == PINNED_SEARCH_OUTCOMES


# ---------------------------------------------------------------------------
# relaxation rungs the last unsat proof did not depend on
# ---------------------------------------------------------------------------


def relax_every_rung(problem, searched=None):
    """solve_with_relaxation with a search on every rung, none skipped; each
    rung's skip set goes to searched, when given."""
    ladder = [c.id for c in problem.relax_order()]
    for n in range(len(ladder) + 1):
        if searched is not None:
            searched.append(frozenset(ladder[:n]))
        solution = solve(problem, skip=frozenset(ladder[:n]))
        if solution.status == "sat":
            solution.relaxed = ladder[:n]
            return solution
    raise CoreUnsat(f"unsatisfiable with all relaxable constraints dropped ({len(ladder)} dropped)")


def sofa_contradiction_scene(rng):
    """The plant must be near the sofa (task) and far from it (enrichment).

    The ladder first drops near(filler0, filler1), which the proof never
    reaches: every sofa cell fails already at sofa.pos. Then it drops far.
    """

    def dims(lo, hi, height):
        return (round(rng.uniform(lo, hi), 2), round(rng.uniform(*height), 2), round(rng.uniform(lo, hi), 2))

    objects = [
        obj("sofa", (round(rng.uniform(1.8, 2.1), 2), 0.8, round(rng.uniform(0.8, 1.0), 2))),
        obj("book", dims(0.15, 0.3, (0.03, 0.06))),
        obj("plant", dims(0.3, 0.45, (0.8, 1.0))),
    ] + [obj(f"filler{i}", dims(0.3, 0.5, (0.3, 0.6))) for i in range(3)]
    relations = [
        SpatialRelation(kind="on_top_of", subject="book", reference="sofa", priority="task"),
        SpatialRelation(kind="near", subject="plant", reference="sofa", priority="task"),
        SpatialRelation(kind="near", subject="filler0", reference="filler1", priority="enrichment"),
        SpatialRelation(kind="far", subject="plant", reference="sofa", priority="enrichment"),
        SpatialRelation(kind="edge", subject="filler2", priority="enrichment"),
    ]
    return [room4()], objects, relations


def count_solves(monkeypatch):
    import envcover.solver

    calls = []
    counted = envcover.solver.solve

    def counting(problem, skip=frozenset()):
        calls.append(skip)
        return counted(problem, skip)

    monkeypatch.setattr(envcover.solver, "solve", counting)
    return calls


def test_skipping_rungs_changes_no_relaxation_outcome(monkeypatch):
    instances = list(seeded_search_instances())
    rng = random.Random(17)
    for trial in range(8):
        rooms, objects, relations = sofa_contradiction_scene(rng)
        instances.append((rooms, objects, relations, SolverConfig(grid_resolution=0.25, seed=trial)))
    calls = count_solves(monkeypatch)
    every_call: list = []
    for trial, (rooms, objects, relations, config) in enumerate(instances):
        skipping = relaxation_outcome(encode(rooms, [], [], objects, relations, config))
        every = encode(rooms, [], [], objects, relations, config)
        assert skipping == relaxation_outcome(every, lambda p: relax_every_rung(p, every_call)), f"instance {trial}"
    # the sofa scenes skip one rung each
    assert len(every_call) - len(calls) >= 8, (len(every_call), len(calls))


def test_a_rung_the_proof_did_not_depend_on_is_not_searched(monkeypatch):
    rooms, objects, relations = sofa_contradiction_scene(random.Random(3))
    problem = encode(rooms, [], [], objects, relations, SolverConfig(grid_resolution=0.25, seed=3))
    near_fillers, far_plant, _ = (c.id for c in problem.relax_order())
    first = solve(problem)
    assert first.status == "unsat"
    assert far_plant in first.pruning and near_fillers not in first.pruning

    calls = count_solves(monkeypatch)
    solution = solve_with_relaxation(problem)
    assert solution.relaxed == [near_fillers, far_plant]
    assert calls == [frozenset(), frozenset({near_fillers, far_plant})]


def test_core_unsat_reached_by_skipping_keeps_its_message(monkeypatch):
    # a and b, placed first, can be neither near nor far enough: the proof
    # never reaches c, so dropping c's edge cannot help and is not searched
    a, b = obj("a", (0.6, 0.4, 0.6)), obj("b", (0.6, 0.4, 0.6))
    rels = [
        SpatialRelation(kind="near", subject="b", reference="a", priority="task"),
        SpatialRelation(kind="far", subject="b", reference="a", priority="task"),
        SpatialRelation(kind="edge", subject="c", priority="enrichment"),
    ]
    objects = [a, b, obj("c", (0.3, 0.4, 0.3))]
    expected = "unsatisfiable with all relaxable constraints dropped (1 dropped)"
    with pytest.raises(CoreUnsat) as every:
        relax_every_rung(encode([room4()], [], [], objects, rels, GRID))
    assert str(every.value) == expected

    calls = count_solves(monkeypatch)
    with pytest.raises(CoreUnsat) as skipping:
        solve_with_relaxation(encode([room4()], [], [], objects, rels, GRID))
    assert str(skipping.value) == expected
    assert calls == [frozenset()]


# ---------------------------------------------------------------------------
# rungs proved unsat from distance and height bounds, before any search
# ---------------------------------------------------------------------------


def test_an_above_ruled_out_by_fixed_heights_is_relaxed_without_search():
    # three floor objects and above(o1, o0): o1's bottom is on the floor,
    # below o0's top, for every cell. A search retried every value of o3
    # and ran out of its 50,000 backtracks after about 12 s.
    objects = [obj("o0", (0.9, 0.6, 0.5)), obj("o3", (0.8, 0.6, 0.5)), obj("o1", (0.6, 0.6, 0.4))]
    rels = [SpatialRelation(kind="above", subject="o1", reference="o0", priority="enrichment")]
    started = time.perf_counter()
    problem = encode([make_room("r", 0, 0, 3, 3)], [], [], objects, rels, GRID)
    (above,) = (c.id for c in problem.relax_order())
    first = solve(problem)
    assert (first.status, first.stats, first.pruning) == (
        "unsat",
        {"backtracks": 0, "assignments": 0},
        frozenset({above}),
    )
    solution = solve_with_relaxation(problem)
    assert solution.relaxed == [above]
    assert check_assignment(problem, solution.assignments, frozenset(solution.relaxed))
    assert time.perf_counter() - started < 1.0


def test_the_static_check_fires_only_where_enumeration_finds_no_solution():
    rng = random.Random(20240817)
    fired = 0
    for trial in range(20):
        room, objects, relations = random_mini_instance(rng)
        problem = encode([room], [], [], objects, relations, GRID)
        core = _static_core(problem, frozenset())
        if core is not None:
            fired += 1
            assert not brute_force_sat(problem), f"trial {trial}: {sorted(core)}"
    assert fired >= 3  # a far in a room under 3 m across


def bound_instance(rng):
    """A far, with near, above and support relations around it, in a room
    whose long side is about the far distance: each bound the static check
    uses comes close to deciding."""
    room = make_room("r", 0, 0, rng.choice([1.5, 2.0]), rng.choice([3.5, 4.0]))
    objects = [
        obj(f"o{i}", (rng.choice([0.4, 0.8, 1.2]), rng.choice([0.3, 0.8]), rng.choice([0.4, 0.8])))
        for i in range(2)
    ] + [
        obj("s", (0.2, rng.choice([0.1, 0.5, 1.0]), 0.2)),
        obj("p", (0.4, 0.3, 0.05), mount_height=rng.choice(["0", "0.05", "1.2"])),
    ]
    relations = [SpatialRelation(kind="mounted_on_wall", subject="p")]
    kind = rng.choice(["on_top_of", "in", None])
    if kind is not None:
        relations.append(SpatialRelation(kind=kind, subject="s", reference="o0"))
    for kind in ["far"] + rng.sample(["near", "near", "above", "above"], rng.randint(1, 2)):
        a, b = rng.sample(["o0", "o1", "s"], 2)
        relations.append(SpatialRelation(kind=kind, subject=a, reference=b, priority="enrichment"))
    return [room], objects, relations


@settings(max_examples=60, deadline=None)
@given(
    make=st.sampled_from(["mini", "differential", "bound"]),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_the_static_check_never_fires_on_a_rung_the_search_solves(make, seed):
    import envcover.solver

    rng = random.Random(seed)
    if make == "mini":
        room, objects, relations = random_mini_instance(rng)
        rooms = [room]
    else:
        make_instance = differential_instance if make == "differential" else bound_instance
        rooms, objects, relations = make_instance(rng)
    config = SolverConfig(grid_resolution=0.5, seed=seed, max_backtracks=1000)
    try:
        problem = encode(rooms, [], [], objects, relations, config)
    except EncodingError:
        return
    ladder = [c.id for c in problem.relax_order()]
    relation_ids = frozenset(c.id for c in problem.constraints if c.relation_index is not None)
    cores = [_static_core(problem, frozenset(ladder[:n])) for n in range(len(ladder) + 1)]
    solved = None  # the first rung the search solves, and its solution
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(envcover.solver, "_static_core", lambda problem, skip: None)
        for n, core in enumerate(cores):
            try:
                solution = solve(problem, frozenset(ladder[:n]))
            except SolverTimeout:
                continue
            assert core is None or solution.status == "unsat", (make, seed, n, sorted(core))
            if solved is None and solution.status == "sat":
                solved = frozenset(ladder[:n]), solution
        for core in {c for c in cores if c is not None}:
            # a core alone, with every other relation dropped, stays unsat
            try:
                alone = solve(problem, relation_ids - core)
                assert alone.status == "unsat", (make, seed, sorted(core))
            except SolverTimeout:
                pass
    if solved is None:
        return
    # every closed bound holds on a solution: a far between any two objects,
    # at the distance the solution puts them apart, is never ruled out (the
    # rung's own fars are skipped, as the patched bound is theirs too)
    skip, solution = solved
    skip |= {c.id for c in problem.constraints if c.kind == "far"}
    with pytest.MonkeyPatch.context() as patch:
        for a, b in itertools.combinations([o.id for o in objects], 2):
            far = SpatialRelation(kind="far", subject=a, reference=b, priority="enrichment")
            tight = encode(rooms, [], [], objects, relations + [far], config)
            apart = math.dist(solution.assignments[f"{a}.pos"], solution.assignments[f"{b}.pos"])
            patch.setattr(envcover.solver, "_FAR_BOUND", apart)
            assert _static_core(tight, skip) is None, (make, seed, a, b)


def chain_scene(middle_kind):
    """a near b, c <middle_kind> b, a far from c, and d far from a; each
    pair alone can hold, and nothing bounds d's distance to a.

    The four footprints are 0.5 m squares, so the four share one grid.
    """
    a, b, c = obj("a", (0.5, 0.4, 0.5)), obj("b", (0.5, 0.5, 0.5)), obj("c", (0.5, 0.2, 0.5))
    rels = [
        SpatialRelation(kind="near", subject="a", reference="b", priority="enrichment"),
        SpatialRelation(kind=middle_kind, subject="c", reference="b", priority="enrichment"),
        SpatialRelation(kind="far", subject="a", reference="c", priority="enrichment"),
        SpatialRelation(kind="far", subject="d", reference="a", priority="enrichment"),
    ]
    return encode([room4()], [], [], [a, b, c, obj("d", (0.5, 0.4, 0.5))], rels, GRID)


def test_a_chain_of_bounds_is_proved_with_every_link_in_its_core():
    # a is within 1.5 m of b and c's center lies over b's 0.5 m square, so a
    # and c are at most 1.5 + 0.37 m apart: far cannot hold. No pair has
    # both an upper and a lower bound.
    problem = chain_scene("in")
    ids = [c.id for c in problem.constraints if c.relation_index is not None][:3]
    for n in range(3):
        assert _static_core(problem, frozenset(ids[n : n + 1])) is None
    solution = solve(problem)
    assert (solution.status, solution.stats) == ("unsat", {"backtracks": 0, "assignments": 0})
    assert solution.pruning == frozenset(ids)


def test_two_nears_that_just_span_a_far_are_not_proved():
    # NEAR_MAX + NEAR_MAX == FAR_MIN: three centers 1.5 m apart on a line
    # satisfy near, near and far, so the bounds must leave this to the search
    problem = chain_scene("near")
    assert _static_core(problem, frozenset()) is None
    on_a_line = {"a.pos": (0.25, 2.0), "b.pos": (1.75, 2.0), "c.pos": (3.25, 2.0), "d.pos": (3.75, 3.75)}
    on_a_line |= {f"{o}.dir": "north" for o in "abcd"}
    assert all(on_a_line[vid] in problem.domains[vid] for vid in problem.variables)
    assert check_assignment(problem, on_a_line)


def test_room_bounds_reach_the_far_corners_of_both_grids():
    # in a 2.5 m room two 0.4 m cubes' centers stay within 2.1 * sqrt(2) m
    a, b = obj("a", (0.4, 0.4, 0.4)), obj("b", (0.4, 0.4, 0.4))
    far = [SpatialRelation(kind="far", subject="a", reference="b", priority="enrichment")]
    solution = solve(encode([make_room("r", 0, 0, 2.5, 2.5)], [], [], [a, b], far, GRID))
    assert (solution.status, solution.stats) == ("unsat", {"backtracks": 0, "assignments": 0})
    assert solution.pruning == {"rel[0]:far:a"}
    # across two 1.5 m wide rooms the far corners are 3.2 m apart
    rooms = [make_room("w", 0, 0, 1.5, 2.5), make_room("e", 1.5, 0, 3.0, 2.5)]
    a, b = obj("a", (0.4, 0.4, 0.4), room="w"), obj("b", (0.4, 0.4, 0.4), room="e")
    problem = encode(rooms, [], [], [a, b], far, GRID)
    assert _static_core(problem, frozenset()) is None
    corners = {"a.pos": (0.2, 0.2), "b.pos": (2.7, 2.2), "a.dir": "north", "b.dir": "north"}
    assert all(corners[vid] in problem.domains[vid] for vid in problem.variables)
    assert check_assignment(problem, corners)


def in_instance(rng):
    """A toy in a crate about its size, and a table, in a small room on a
    coarse grid: the crate's and the toy's grids are offset by a fraction
    of the step, so a toy that fits the crate may fit it at no pair of
    cells."""
    room = make_room("r", 0, 0, rng.choice([1.0, 1.25, 1.5]), rng.choice([1.0, 1.25]))
    crate = obj("crate", (rng.randint(30, 70) / 100, 0.4, rng.randint(30, 70) / 100))
    toy = obj("toy", tuple(round(v * rng.uniform(0.4, 1.02), 2) for v in crate.size))
    table = obj("table", (0.3, 0.5, 0.3))
    grid = SolverConfig(grid_resolution=rng.choice([0.2, 0.25, 0.3]))
    return [room], [crate, toy, table], [SpatialRelation(kind="in", subject="toy", reference="crate")], grid


def test_the_in_proof_agrees_with_enumerating_both_grids():
    # both senses: no pair of cells in any directions satisfies the in
    # predicate exactly when encode records the in constraint as cellless
    rng = random.Random("in-cells")
    outcomes = collections.Counter()
    for trial in range(80):
        rooms, objects, relations, grid = in_instance(rng)
        try:
            problem = encode(rooms, [], [], objects, relations, grid)
        except EncodingError:
            continue
        (c,) = (c for c in problem.constraints if c.kind == "in")
        satisfied = any(
            c.check(dict(zip(c.variables, values)))
            for values in itertools.product(*(problem.domains[v] for v in c.variables))
        )
        assert _in_cells_exist(problem.geo, "toy", "crate") == satisfied, trial
        assert (c.id in problem.cellless_in) == (not satisfied), trial
        assert (_static_core(problem, frozenset()) == {c.id}) == (not satisfied), trial
        outcomes[satisfied] += 1
    assert outcomes[True] >= 25 and outcomes[False] >= 25, outcomes


def test_an_in_axis_is_decided_as_enumerating_both_coordinate_lists_decides_it():
    # one edge of the in predicate's window put on a difference of two
    # cells, to a few ulps, so that the float rounding of each point
    # decides; on some lists a later partner cell passes where the first
    # one does not
    rng = random.Random("in-axis")
    decided = collections.Counter()
    for _ in range(2000):
        side, res = rng.choice([1.0, 1.25, 1.5, 2.0]), rng.choice([0.1, 0.15, 0.2, 0.25, 0.3])
        toy, crate = rng.randint(20, 60) / 100, rng.randint(30, 80) / 100
        cs = _grid_points(toy / 2, side - toy / 2, res)
        ps = _grid_points(crate / 2, side - crate / 2, res)
        hc, d = toy / 2, rng.choice(cs) - rng.choice(ps)
        hp = hc - _IN_EPS - d if rng.random() < 0.5 else d + hc - _IN_EPS
        for _ in range(rng.randint(0, 3)):
            hp = math.nextafter(hp, math.inf)
        if hp <= 0:
            continue
        expected = any(_inside_span(c - hc, c + hc, p - hp, p + hp) for c in cs for p in ps)
        assert _inside_run_exists(cs, hc, ps, hp) == expected, (cs, hc, ps, hp)
        first = any(_inside_span(c - hc, c + hc, ps[0] - hp, ps[0] + hp) for c in cs)
        decided[expected, first] += 1
    assert decided[True, True] >= 100 and decided[False, False] >= 100, decided
    assert decided[True, False] >= 10, decided


def test_an_in_no_pair_of_cells_satisfies_is_core_unsat_without_search():
    # the toy fits the crate by 0.2 m along one axis and 0.25 m along the
    # other, but the two grids are 0.125 m apart: in either quarter turn one
    # axis is off by more than _IN_EPS at every pair of cells
    crate, toy = obj("crate", (0.4, 0.4, 0.4)), obj("toy", (0.2, 0.2, 0.15))
    others = [obj(f"o{i}", (0.9, 0.8, 0.6)) for i in range(3)]
    relations = [
        SpatialRelation(kind="in", subject="toy", reference="crate"),
        SpatialRelation(kind="near", subject="o0", reference="crate", priority="enrichment"),
        SpatialRelation(kind="edge", subject="o1", priority="enrichment"),
    ]
    config = SolverConfig(grid_resolution=0.25, max_backtracks=300)
    problem = encode([room4()], [], [], [crate, toy, *others], relations, config)
    first = solve(problem)
    assert (first.status, first.stats, first.pruning) == (
        "unsat",
        {"backtracks": 0, "assignments": 0},
        frozenset({"rel[0]:in:toy"}),
    )
    with pytest.raises(CoreUnsat):
        solve_with_relaxation(problem)
    # without the proof, the search runs out of its budget instead
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(envcover.solver, "_in_cells_exist", lambda geo, s, r: True)
        unproved = encode([room4()], [], [], [crate, toy, *others], relations, config)
        with pytest.raises(SolverTimeout):
            solve_with_relaxation(unproved)


# ---------------------------------------------------------------------------
# the pre-solve rules against encode and the validator
# ---------------------------------------------------------------------------


def pre_solve_draft(rng):
    """A seeded draft in one room or two adjacent ones: a support chain,
    an in pair drawn about its container's size, a picture mounted near the
    wall top, and relations whose two objects may sit in different rooms.
    Now and then an object gets a second support or a chain loops."""
    rooms = [make_room("r", 0, 0, 4, 4)]
    if rng.random() < 0.5:
        rooms.append(make_room("s", 4, 0, 4 + rng.choice([3, 4]), 4))

    def size(lo, hi, h_lo, h_hi):
        return tuple(rng.randint(*span) / 100 for span in ((lo, hi), (h_lo, h_hi), (lo, hi)))

    def room(host=None):
        return host.room if host is not None and rng.random() < 0.9 else rng.choice(rooms).id

    floor = [obj("f0", size(50, 100, 40, 150), room=room())]
    floor += [obj(f"f{i}", size(50, 100, 40, 150), room=room(floor[0])) for i in (1, 2)]
    top = obj("top", size(20, 50, 20, 100), room=room(floor[0]))
    cup = obj("cup", size(10, 20, 5, 80), room=room(floor[0]))
    box = floor[1]
    toy = obj("toy", tuple(round(v * rng.uniform(0.3, 1.05), 2) for v in box.size), room=room(box))
    height = rng.randint(20, 120) / 100
    mount = round(3.0 - height + rng.choice([-1.0, -0.5, -0.01, 0.0, 0.0, 0.005, 0.01, 0.3]), 3)
    picture = obj("picture", (0.6, height, 0.05), room=room(floor[0]), mount_height=str(max(mount, 0.1)))
    objects = floor + [top, cup, toy, picture]
    relations = [
        SpatialRelation(kind="on_top_of", subject="top", reference="f0"),
        SpatialRelation(kind="on_top_of", subject="cup", reference=rng.choice(["top", "f0"])),
        SpatialRelation(kind="in", subject="toy", reference="f1"),
        SpatialRelation(kind="mounted_on_wall", subject="picture"),
    ]
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["near", "far", "side_of", "in_front_of", "center_aligned", "above"])
        a, b = rng.sample(["f0", "f1", "f2"], 2)
        priority = rng.choice(["task", "enrichment"])
        relations.append(SpatialRelation(kind=kind, subject=a, reference=b, priority=priority))
    roll = rng.random()
    if roll < 0.1:
        relations.append(SpatialRelation(kind="on_top_of", subject="toy", reference="f2"))
    elif roll < 0.2:
        relations.append(SpatialRelation(kind="on_top_of", subject="f0", reference="cup"))
    return rooms, objects, relations


def test_encode_rejects_exactly_the_flagged_drafts_and_every_sat_scene_validates():
    # a differential check of the one rule set: encode raises EncodingError
    # exactly when compatibility_conflicts returns a record, and a scene the
    # solver places passes the validator's entity and relation checks
    started = time.perf_counter()
    rng = random.Random("pre-solve")
    outcomes = collections.Counter()
    rules = collections.Counter()
    for trial in range(300):
        rooms, objects, relations = pre_solve_draft(rng)
        conflicts = compatibility_conflicts(objects, relations)
        rules.update(c["rule"] for c in conflicts)
        config = SolverConfig(grid_resolution=0.5, seed=trial, max_backtracks=1000)
        try:
            problem = encode(rooms, [], [], objects, relations, config)
        except EncodingError:
            assert conflicts, (trial, relations)
            outcomes["rejected"] += 1
            continue
        assert not conflicts, (trial, conflicts)
        try:
            solution = solve_with_relaxation(problem)
        except (CoreUnsat, SolverTimeout) as exc:
            outcomes[type(exc).__name__] += 1
            continue
        index_of = {c.id: c.relation_index for c in problem.constraints}
        env = EnvironmentSpec(
            id="e", task_id="t", trajectory_id="x", rooms=rooms, objects=objects,
            relations=relations, placements=solution.placements,
            relaxed_relations=sorted(index_of[cid] for cid in solution.relaxed),
        )
        failures = [f for f in validate_physics(env).failures if f.rule in ("entity", "relation")]
        assert failures == [], (trial, failures)
        outcomes["sat"] += 1
    assert outcomes["rejected"] >= 100 and outcomes["sat"] >= 30, outcomes
    assert set(rules) >= {
        "exclusive_support", "support_cycle", "mountability", "containment_capacity", "room_consistency"
    }, rules
    assert time.perf_counter() - started < 30.0
