"""Acceptance suite: ten end-to-end guarantees, one test per criterion and
a second one for c10's rerun into a used run directory.

Each test states its tolerance and wall-clock budget inline; `pytest -v`
prints one pass/fail line per criterion. The checks run entirely on the
bundled fixture task, replay cassettes, and seeded synthetic instances, so
the whole file is deterministic and offline.
"""

import copy
import itertools
import json
import random
import time
from pathlib import Path

import pytest

from envcover.environment import (
    EnvironmentSpec,
    ObjectSpec,
    SpatialRelation,
    make_room,
)
from envcover.metrics import logic_coverage, share
from envcover.pipeline import run_all
from envcover.simulation import (
    VERDICT_CAUSAL,
    VERDICT_GOAL,
    VERDICT_PASS,
    detected,
    run_policy,
    scenario_validity,
)
from envcover.solver import SolverConfig, encode, solve, solve_with_relaxation
from envcover.task_model import DecisionPath, QueryResponse, extract_paths
from envcover.trajectories import (
    cartesian_trajectories,
    covered_constraints,
    minimal_trajectory_selection,
    paths_per_subtask,
)
from envcover.validator import validate_physics
from oracles import check_assignment, exhaustive_min_cover

GRID = SolverConfig(grid_resolution=0.25, seed=0)


def synthetic_path_sets(sizes):
    return [
        [
            DecisionPath(
                subtask_id=f"s{i}",
                steps=(QueryResponse(f"q{i}", f"v{j}"),),
                leaf_action="Act.",
            )
            for j in range(n)
        ]
        for i, n in enumerate(sizes)
    ]


def simple_object(id, size, room="r", category="enrichment"):
    return ObjectSpec(
        id=id, description=f"a {id}", room=room, size=size, category=category, attributes={}
    )


def solved_environment(trial, room, objects, relations):
    problem = encode([room], [], [], objects, relations, SolverConfig(grid_resolution=0.25, seed=trial))
    solution = solve(problem)
    assert solution.status == "sat", f"instance {trial} should be solvable"
    return EnvironmentSpec(
        id=f"rand-{trial}",
        task_id="synthetic",
        trajectory_id="synthetic",
        rooms=[room],
        objects=objects,
        relations=relations,
        placements=solution.placements,
    )


def test_c01_twelve_trajectories_reduce_to_a_three_cover(derived):
    # budget: exact counts, < 1 s
    started = time.perf_counter()
    path_sets = paths_per_subtask(derived.trees)
    assert [len(ps) for ps in path_sets] == [3, 2, 2]

    universe = cartesian_trajectories(path_sets)
    assert len(universe) == 12

    minimal = minimal_trajectory_selection(universe)
    full_cover = covered_constraints(universe)
    assert len(full_cover) == 7
    assert len(minimal) <= 4
    assert covered_constraints(minimal) == full_cover

    oracle = exhaustive_min_cover(universe)
    assert len(oracle) == 3
    assert covered_constraints(oracle) == full_cover
    assert time.perf_counter() - started < 1.0


def test_c02_selection_outpaces_the_exhaustive_oracle():
    # budget: >= 10x speedup at 12 trajectories; 10 000 trajectories < 1 s
    universe = cartesian_trajectories(synthetic_path_sets((6, 2)))
    assert len(universe) == 12

    def best_of(fn, repeats=5, iters=200):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(iters):
                fn()
            best = min(best, time.perf_counter() - t0)
        return best

    greedy_time = best_of(lambda: minimal_trajectory_selection(universe))
    oracle_time = best_of(lambda: exhaustive_min_cover(universe))
    assert minimal_trajectory_selection(universe) and exhaustive_min_cover(universe)
    assert oracle_time >= 10 * greedy_time, (
        f"oracle {oracle_time * 5000:.1f} us/call vs greedy {greedy_time * 5000:.1f} us/call"
    )

    big = cartesian_trajectories(synthetic_path_sets((10, 10, 10, 10)))
    assert len(big) == 10_000
    started = time.perf_counter()
    selected = minimal_trajectory_selection(big)
    assert time.perf_counter() - started < 1.0
    assert len(selected) == 10
    assert covered_constraints(selected) == covered_constraints(big)


def test_c03_selection_preserves_coverage_on_200_random_instances():
    # budget: exact coverage equality, size within oracle + 2, < 30 s total
    started = time.perf_counter()
    rng = random.Random(7)
    for trial in range(200):
        sizes = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
        universe = cartesian_trajectories(synthetic_path_sets(sizes))
        minimal = minimal_trajectory_selection(universe)
        assert covered_constraints(minimal) == covered_constraints(universe), (
            f"instance {trial} {sizes}: selection lost coverage"
        )
        # on a full product the optimum is the largest path-set size; the
        # brute-force oracle confirms that wherever it is feasible
        optimum = max(sizes)
        if len(universe) <= 20:
            assert len(exhaustive_min_cover(universe)) == optimum
        assert len(minimal) <= optimum + 2, f"instance {trial} {sizes}"
    assert time.perf_counter() - started < 30.0


def test_c04_every_built_scene_passes_all_physics_dimensions(built_envs):
    # budget: pass rate exactly 1.0 over fixture + 50 random scenes, < 2 min
    started = time.perf_counter()
    reports = []
    for env in built_envs:
        reports.append(validate_physics(env))

    rng = random.Random(404)
    for trial in range(50):
        side = rng.choice([3.0, 3.5, 4.0])
        room = make_room("r", 0, 0, side, side)
        objects = [
            simple_object(
                f"o{i}",
                (
                    round(rng.uniform(0.3, 0.9), 2),
                    round(rng.uniform(0.3, 1.0), 2),
                    round(rng.uniform(0.3, 0.9), 2),
                ),
            )
            for i in range(rng.choice([2, 2, 3]))
        ]
        relations = []
        roll = rng.random()
        if roll < 0.3:
            relations.append(SpatialRelation(kind="near", subject="o1", reference="o0"))
        elif roll < 0.5:
            objects.append(simple_object("s", (0.2, 0.1, 0.2)))
            relations.append(SpatialRelation(kind="on_top_of", subject="s", reference="o0"))
        elif roll < 0.65:
            relations.append(SpatialRelation(kind="edge", subject="o0"))
        env = solved_environment(trial, room, objects, relations)
        reports.append(validate_physics(env))

    for report in reports:
        assert report.ok, [f.message for f in report.failures]
    assert share([r.ok for r in reports]) == 1.0
    assert time.perf_counter() - started < 120.0


def test_c05_unsat_verdicts_match_exhaustive_grid_enumeration():
    # budget: exact agreement on 20 instances (<= 3 objects, 0.25 m grid), < 2 min
    started = time.perf_counter()

    def brute_force_sat(problem):
        order = problem.variables
        domains = [problem.domains[vid] for vid in order]
        for combo in itertools.product(*domains):
            if check_assignment(problem, dict(zip(order, combo))):
                return True
        return False

    rng = random.Random(505)
    verdicts = {"sat": 0, "unsat": 0}
    for trial in range(20):
        side = rng.choice([1.0, 1.25])
        room = make_room("r", 0, 0, side, side)
        sizes = [0.5, 0.75]
        objects = [
            simple_object(f"o{i}", (rng.choice(sizes), 0.4, rng.choice(sizes)))
            for i in range(rng.choice([2, 3]))
        ]
        relations = []
        roll = rng.random()
        if roll < 0.25:
            relations.append(SpatialRelation(kind="near", subject="o1", reference="o0"))
        elif roll < 0.45:
            relations.append(SpatialRelation(kind="far", subject="o1", reference="o0"))
        elif roll < 0.6:
            relations.append(SpatialRelation(kind="edge", subject="o0"))
        problem = encode(
            [room], [], [], objects, relations, SolverConfig(grid_resolution=0.25, seed=trial)
        )
        expected = brute_force_sat(problem)
        got = solve(problem).status == "sat"
        assert got == expected, f"instance {trial}: solver {got}, enumeration {expected}"
        verdicts["sat" if expected else "unsat"] += 1
    # the sweep must actually exercise both verdicts to mean anything
    assert verdicts["sat"] >= 5 and verdicts["unsat"] >= 5
    assert time.perf_counter() - started < 120.0


def test_c06_each_defect_class_flips_exactly_its_dimension(built_envs):
    # budget: four mutations, each flipping one dimension, < 10 s
    started = time.perf_counter()
    baseline = built_envs[0]
    assert validate_physics(baseline).ok

    def dimensions(env):
        failed = {f.rule for f in validate_physics(env).failures}
        return tuple(rule not in failed for rule in ("floor_plan", "entity", "relation"))

    overlapping = copy.deepcopy(baseline)
    overlapping.rooms.append(make_room("spare", 0.0, 0.0, 2.0, 2.0))
    assert dimensions(overlapping) == (False, True, True)

    floating = copy.deepcopy(baseline)
    lifted = floating.placement_of("toy")
    floating.placements[floating.placements.index(lifted)] = type(lifted)(
        object="toy", position=(lifted.position[0], 0.4, lifted.position[2]), direction=lifted.direction
    )
    assert dimensions(floating) == (True, False, True)

    colliding = copy.deepcopy(baseline)
    crash = colliding.placement_of("toy")
    sofa_at = colliding.placement_of("sofa").position
    colliding.placements[colliding.placements.index(crash)] = type(crash)(
        object="toy", position=(sofa_at[0], 0.0, sofa_at[2]), direction=crash.direction
    )
    assert dimensions(colliding) == (True, False, True)

    contradicted = copy.deepcopy(baseline)
    contradicted.relations.append(
        SpatialRelation(kind="near", subject="book", reference="red_box", priority="task")
    )
    assert dimensions(contradicted) == (True, True, False)
    assert time.perf_counter() - started < 10.0


def test_c07_coverage_is_total_until_the_doll_scene_is_removed(derived, built_envs, selected_trajectories):
    # budget: exact 7/7 then 6/7, < 1 min
    started = time.perf_counter()
    _, selected = selected_trajectories
    assert [e.trajectory_id for e in built_envs] == [t.trajectory_id for t in selected]

    full = logic_coverage(derived.trees, selected)
    assert (full.covered, full.universe) == (7, 7)
    assert full.ratio == 1.0

    kept = [
        t
        for e, t in zip(built_envs, selected)
        if e.metadata.get(("toy", "toy_type")) != "doll"
    ]
    assert len(kept) == len(selected) - 1
    reduced = logic_coverage(derived.trees, kept)
    assert (reduced.covered, reduced.universe) == (6, 7)
    assert time.perf_counter() - started < 60.0


def test_c08_faulty_policies_need_the_full_scene_spread(
    built_envs, selected_trajectories, task_schema, action_model, policies
):
    # budget: validity 1.0, three faults caught with their verdict classes,
    # and the branch-gap fault invisible on wipes-present scenes, < 1 min
    started = time.perf_counter()
    _, selected = selected_trajectories
    rows = list(zip(built_envs, selected))

    validity_flags = []
    for env, _ in rows:
        reasons = scenario_validity(env, task_schema, validate_physics(env))
        assert not reasons, reasons
        validity_flags.append(not reasons)
    assert share(validity_flags) == 1.0

    def outcomes(label):
        return [
            run_policy(policies[label], env, trajectory, task_schema, action_model)
            for env, trajectory in rows
        ]

    assert all(o.verdict == VERDICT_PASS for o in outcomes("correct"))

    by_label = {label: outcomes(label) for label in ("counterfactual", "unreachable", "lackbranch")}
    assert share([detected(runs) for runs in by_label.values()]) == 1.0

    failing = lambda runs: {o.verdict for o in runs if o.verdict != VERDICT_PASS}
    assert failing(by_label["counterfactual"]) == {VERDICT_CAUSAL}
    assert failing(by_label["unreachable"]) == {VERDICT_GOAL}
    assert failing(by_label["lackbranch"]) == {VERDICT_GOAL}
    assert any(o.verdict == VERDICT_PASS for o in by_label["lackbranch"])

    wipes_present = [
        (env, t) for env, t in rows if env.metadata.get(("wet_wipes", "presence")) == "present"
    ]
    assert len(wipes_present) == 2
    narrowed = [
        run_policy(policies["lackbranch"], env, t, task_schema, action_model)
        for env, t in wipes_present
    ]
    assert not detected(narrowed), "branch-gap fault must hide on wipes-present scenes"
    assert time.perf_counter() - started < 60.0


def test_c09_relaxation_drops_enrichment_relations_only():
    # budget: relaxed ids form a ladder prefix, task relations untouched, < 30 s
    started = time.perf_counter()
    sofa = simple_object("sofa", (2.0, 0.8, 0.9), category="task_related")
    book = simple_object("book", (0.25, 0.04, 0.18), category="task_related")
    plant = simple_object("plant", (0.4, 0.9, 0.4))
    relations = [
        SpatialRelation(kind="on_top_of", subject="book", reference="sofa", priority="task"),
        SpatialRelation(kind="near", subject="plant", reference="sofa", priority="task"),
        SpatialRelation(kind="far", subject="plant", reference="sofa", priority="enrichment"),
    ]
    problem = encode([make_room("r", 0, 0, 4, 4)], [], [], [sofa, book, plant], relations, GRID)
    solution = solve_with_relaxation(problem)
    assert solution.status == "sat"

    assert solution.relaxed, "the contradictory enrichment relation must be dropped"
    ladder = [c.id for c in problem.relax_order()]
    assert solution.relaxed == ladder[: len(solution.relaxed)]
    relaxable_by_id = {c.id: c for c in problem.constraints}
    for dropped in solution.relaxed:
        assert relaxable_by_id[dropped].relaxable
    assert solution.relaxed == ["rel[2]:far:plant"]

    # surviving task relations hold in the returned placements
    by_obj = {p.object: p for p in solution.placements}
    assert by_obj["book"].position[1] == pytest.approx(0.8)
    px, pz = by_obj["plant"].position[0], by_obj["plant"].position[2]
    sx, sz = by_obj["sofa"].position[0], by_obj["sofa"].position[2]
    assert (px - sx) ** 2 + (pz - sz) ** 2 <= 1.5**2 + 1e-9
    assert time.perf_counter() - started < 30.0


# Digests of the fixture's run-all directory (see conftest.run_dir_digest) by
# grid. A change that alters any scene or report byte must update them and
# say why.
PINNED_RUN_DIGESTS = {
    0.2: "018f022c2f82f544c648645066bbe35bd8a9a7b6925500d6de44259485a32709",
    0.1: "b414e685dacfa4b76d167f0fcfc1f9240abe6ed2000913ce59d2cfe81aa30764",
    0.05: "7c95a0116d3f13e1ee1a4387b198e78eb4b04b25e21ce6dd1e64505159c61a64",
}


def test_c10_reruns_are_byte_identical_outside_the_manifest(living_room_dir, tmp_path, dir_digest):
    # budget: two full runs at grid 0.1 plus one each at 0.2 and 0.05, every
    # artifact byte-identical except manifest.json, and equal to the pinned
    # digests, < 5 min
    started = time.perf_counter()
    first, second = tmp_path / "first", tmp_path / "second"
    report_a = run_all(str(first), str(living_room_dir))
    report_b = run_all(str(second), str(living_room_dir))
    assert report_a == report_b
    assert dir_digest(first) == PINNED_RUN_DIGESTS[0.1]
    for grid in (0.2, 0.05):
        out = tmp_path / f"grid{grid}"
        run_all(str(out), str(living_room_dir), grid=grid)
        assert dir_digest(out) == PINNED_RUN_DIGESTS[grid], f"grid {grid}"

    files_a = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
    assert files_a == files_b and files_a

    assert Path("manifest.json") in set(files_a)
    for rel in files_a:
        if rel.name == "manifest.json":
            continue
        assert (first / rel).read_bytes() == (second / rel).read_bytes(), str(rel)

    manifest = json.loads((first / "manifest.json").read_text())
    assert {s["name"] for s in manifest["stages"]} >= {"derive", "build", "simulate"}
    assert time.perf_counter() - started < 300.0


def test_c10_a_rerun_into_a_used_run_directory_reads_the_pinned_digests(
    living_room_dir, tmp_path, dir_digest
):
    # budget: one run at grid 0.05 and one at 0.1 into the same directory,
    # every artifact outside manifest.json equal to a fresh run's, < 2 min.
    # Each scene at grid 0.05 and seed 5 is longer than at grid 0.1, so the
    # rerun shrinks every scene file in place.
    started = time.perf_counter()
    out = tmp_path / "run"
    run_all(str(out), str(living_room_dir), grid=0.05, seed=5)
    old = {p.name: p.read_bytes() for p in out.glob("environments/env-*.json")}
    run_all(str(out), str(living_room_dir), grid=0.1)
    new = {p.name: p.read_bytes() for p in out.glob("environments/env-*.json")}
    assert sorted(old) == sorted(new) and old
    for name in old:
        assert len(old[name]) > len(new[name]), name
    assert dir_digest(out) == PINNED_RUN_DIGESTS[0.1]
    assert time.perf_counter() - started < 120.0
