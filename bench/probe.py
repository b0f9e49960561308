"""Untimed scale-curve probe for the solver and for collection.

    python3 bench/probe.py --seed 0 --out bench/scale_curve.json

Makes one attempt per point and gates nothing. A point that hits a solver
budget costs that budget once: up to 50 000 backtracks or 60 s. Points:

- solver: seeded scenes with 5 to 40 objects, each at grid 0.2, 0.1 and
  0.05, from two generators: ``layout`` (the solver_dense workload's, which
  does not backtrack) and ``tangled`` (relations in chains, which makes the
  search thrash until a budget fires); and the contradiction scene at grid
  0.25, 0.2 and 0.1;
- collection: plan shapes (6,) * k for k = 1..7 and the three collect_wide
  shapes.

Per solver point it records status, which budget fired on a timeout, wall
time, relaxation rungs, assignments, backtracks and domain values (counted
over every rung by the tracing wrappers). Per collection point it records the
universe and selection sizes, the wall time of stage_collect, and the
tracemalloc peak of enumerating and selecting. The solver points run without
tracemalloc, which would slow the search and move where the 60 s wall-clock
budget fires.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import random
import shutil
import sys
import time
import tracemalloc

import run

SOLVER_OBJECTS = (5, 10, 15, 20, 30, 40)
SOLVER_GRIDS = (0.2, 0.1, 0.05)
CONTRADICTION_GRIDS = (0.25, 0.2, 0.1)
COLLECT_SHAPES = [(6,) * k for k in range(1, 8)]


def solver_point(tracer, scene) -> dict:
    from envcover import solver
    from envcover.errors import CoreUnsat, SolverTimeout

    tracer.spans.clear()
    tracer.group = scene.name
    tracer.install()
    started = time.perf_counter()
    try:
        config = solver.SolverConfig(grid_resolution=scene.grid, seed=scene.solver_seed)
        problem = solver.encode(scene.rooms, [], [], scene.objects, scene.relations, config)
        solution = solver.solve_with_relaxation(problem)
        status, budget = "sat", None
        relaxed = len(solution.relaxed)
    except SolverTimeout as exc:
        status, relaxed = "timeout", None
        budget = "backtracks" if "backtrack" in str(exc) else "wall_clock"
    except CoreUnsat:
        status, budget, relaxed = "core_unsat", None, None
    finally:
        tracer.uninstall()
    seconds = time.perf_counter() - started
    layers = tracer.layer_metrics([scene.name])
    point = {
        "objects": len(scene.objects),
        "grid": scene.grid,
        "status": status,
        "budget": budget,
        "seconds": seconds,
        "relaxed": relaxed,
        **{k.split(".", 1)[1]: layers[k] for k in (
            "solver.rungs", "solver.assignments", "solver.backtracks", "solver.domain_values",
        )},
    }
    if status == "timeout":
        # a timed-out rung returns no stats: its assignments are unknown, and
        # its backtracks are known only when the backtrack budget fired
        point["assignments"] = None
        if budget == "backtracks":
            point["backtracks"] += config.max_backtracks + 1
        else:
            point["backtracks"] = None
    return point


def collect_point(work, rng, sizes) -> dict:
    import inputs
    from envcover import pipeline, task_model, trajectories

    plan, subtasks = inputs.plan_shape(rng, sizes)
    paths = pipeline.RunPaths(work / "collect")
    shutil.rmtree(paths.root, ignore_errors=True)
    paths.ensure()
    (paths.plans / "plan_document.json").write_text(json.dumps(plan, indent=2) + "\n")
    (paths.plans / "subtasks.json").write_text(json.dumps(subtasks, indent=2) + "\n")
    started = time.perf_counter()
    selected = pipeline.stage_collect(paths)
    collect_s = time.perf_counter() - started
    shutil.rmtree(paths.root)

    trees = task_model.parse_behavior_plan(plan, [s["id"] for s in subtasks])
    path_sets = trajectories.paths_per_subtask(trees)
    tracemalloc.start()
    try:
        universe = trajectories.cartesian_trajectories(path_sets)
        trajectories.minimal_trajectory_selection(universe)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    return {
        "shape": list(sizes),
        "universe": math.prod(sizes),
        "selected": len(selected),
        "collect_s": collect_s,
        "peak_alloc_mb": peak,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Untimed scale-curve probe.")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="also write the points as one JSON document here")
    args = parser.parse_args(argv)
    try:
        run.import_envcover()
    except ImportError as exc:
        print(f"probe: cannot import envcover from this checkout: {exc}", file=sys.stderr)
        return 2
    import inputs
    import tracing

    doc = {"machine": run.machine_record(args.seed), "solver": [], "collect": []}
    tracer = tracing.Tracer()
    for kind, make in (("layout", inputs.layout_scene), ("tangled", inputs.tangled_scene)):
        for n in SOLVER_OBJECTS:
            scene = make(random.Random(args.seed * 1000 + n), n, f"{kind}-{n}")
            for grid in SOLVER_GRIDS:
                point = {"kind": kind, **solver_point(tracer, dataclasses.replace(scene, grid=grid))}
                doc["solver"].append(point)
                print(json.dumps(point), flush=True)
    scene = inputs.contradiction_scene(random.Random(args.seed), "contradiction")
    for grid in CONTRADICTION_GRIDS:
        point = {"kind": "contradiction", **solver_point(tracer, dataclasses.replace(scene, grid=grid))}
        doc["solver"].append(point)
        print(json.dumps(point), flush=True)

    work = run.OUT / f"probe-{os.getpid()}"
    rng = random.Random(args.seed)
    try:
        for sizes in COLLECT_SHAPES + list(inputs.COLLECT_SHAPES):
            point = collect_point(work, rng, sizes)
            doc["collect"].append(point)
            print(json.dumps(point), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
