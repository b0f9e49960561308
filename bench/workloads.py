"""The four closed-loop workloads.

Each workload has a ``setup`` (run several times to time it) and an
``iteration`` made of three timed steps. An iteration starts when the last
one has finished: envcover is a batch tool with one caller, not a server.
All calls go through envcover's public functions, looked up on their module
at call time so that the traced run can wrap them. Output checks run after
each step, outside its timing.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from pathlib import Path

from envcover import environment, metrics, pipeline, solver, task_model, validator
from envcover.assets import load_catalog
from envcover.errors import (
    CoreUnsat,
    ProviderError,
    SolverTimeout,
    TrajectoryMismatch,
    UnsatisfiableScene,
)
from envcover.providers import load_cassette
from envcover.schema import load_schema
from envcover.simulation import load_action_model, load_policy
from envcover.trajectories import covered_constraints, paths_per_subtask

import inputs

# errors that fail one operation and are counted; anything else aborts the run
CLASSIFIED = (SolverTimeout, CoreUnsat, UnsatisfiableScene, TrajectoryMismatch, ProviderError)

FIXTURE = Path("src/envcover/fixtures/clean_living_room")

# policy -> verdict per environment (env-000, env-001, env-002) on the
# bundled fixture; the same at every grid
EXPECTED_VERDICTS = {
    "correct": ["pass", "pass", "pass"],
    "counterfactual": ["pass", "causal_violation", "pass"],
    "lackbranch": ["pass", "goal_unreached", "pass"],
    "unreachable": ["goal_unreached", "pass", "pass"],
}


class Context:
    """What one benchmark run shares with its workload."""

    def __init__(self, root: Path, work: Path, seed: int):
        self.root = root
        self.work = work
        self.seed = seed
        self.tracer = None  # set while an iteration is traced
        self.pace = None  # a pace.Pace while iterations are timed
        self.iteration = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.check_failures: list[str] = []

    def timed(self, step: int, fn, *args, **kwargs):
        """Run ``fn``, recording its wall time under ``step`` (and a span when traced)."""
        span = self.tracer.open(f"bench.step{step + 1}") if self.tracer else None
        try:
            return self.pace.call(("step", self.iteration, step), fn, *args, **kwargs)
        finally:
            if span is not None:
                self.tracer.close(span)

    def fail(self, where: str, exc: Exception) -> None:
        record = {"where": where, "error": type(exc).__name__, "detail": str(exc)[:200]}
        if isinstance(exc, SolverTimeout):
            record["budget"] = "backtracks" if "backtrack" in str(exc) else "wall_clock"
        self.failed += 1
        self.failures.append(record)

    def check(self, ok: bool, where: str, what: str) -> None:
        if not ok:
            self.failed += 1
            self.check_failures.append(f"{where}: {what}")


def _verdicts(simulation_doc: dict) -> dict:
    return {
        label: [env["verdict"] for _, env in sorted(policy["environments"].items())]
        for label, policy in simulation_doc["policies"].items()
    }


def _load_bundle(bundle_dir: Path):
    """Resolve the bundle and parse every file in it, as a first run would."""
    bundle = pipeline.resolve_bundle(str(bundle_dir))
    pipeline.load_task(bundle.task_file)
    load_schema(str(bundle.schema_file))
    load_catalog(str(bundle.catalog_file))
    load_cassette(bundle.cassette_file)
    load_action_model(str(bundle.action_model_file))
    for policy in sorted(bundle.policies_dir.glob("*.json")):
        load_policy(str(policy))
    return bundle


def _digests(run_dir: Path) -> dict[str, str]:
    return {
        str(p.relative_to(run_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(run_dir.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


class Fixture:
    """run_all on the bundled task at three grids; the solver dominates."""

    name = "fixture"
    steps = (
        "run_all grid 0.2 (four per iteration)",
        "run_all grid 0.1 (two per iteration)",
        "run_all grid 0.05 (one per iteration)",
    )
    op_unit = "run_all calls"
    GRIDS = (0.2, 0.1, 0.05)
    # run_all calls per iteration at each grid: the quick grids run more
    # often, so each step has several samples in a run
    REPEATS = (4, 2, 1)

    def setup(self, ctx: Context) -> None:
        self.bundle_dir = ctx.root / FIXTURE
        _load_bundle(self.bundle_dir)
        self.first_digests: dict[float, dict] = {}

    def iteration(self, ctx: Context, i: int) -> None:
        for step, (grid, repeats) in enumerate(zip(self.GRIDS, self.REPEATS)):
            for r in range(repeats):
                out = ctx.work / f"fixture-{i}-{grid}-{r}"
                ctx.attempted += 1
                try:
                    report = ctx.timed(step, pipeline.run_all, str(out), str(self.bundle_dir), grid=grid)
                except CLASSIFIED as exc:
                    ctx.fail(f"run_all grid {grid}", exc)
                else:
                    self._check(ctx, grid, out, report)
                shutil.rmtree(out, ignore_errors=True)

    def _check(self, ctx: Context, grid: float, out: Path, report: dict) -> None:
        where = f"fixture grid {grid}"
        cov = report["coverage"]
        sim = json.loads((out / "reports" / "simulation.json").read_text())
        digests = _digests(out)
        first = self.first_digests.setdefault(grid, digests)
        ctx.check(
            (cov["paths"]["covered"], cov["paths"]["universe"]) == (7, 7)
            and (cov["atomic"]["covered"], cov["atomic"]["universe"]) == (8, 8)
            and report["physics"]["pass_rate"] == 1.0
            and report["validity"]["rate"] == 1.0
            and report["simulation"]["fault_detection_rate"] == 1.0
            and _verdicts(sim) == EXPECTED_VERDICTS
            and digests == first,
            where,
            "report, verdict matrix or rerun bytes differ from the expected run",
        )


class CollectWide:
    """stage_collect plus coverage on seeded plans of three shapes; no solver."""

    name = "collect_wide"
    op_unit = "collections"
    # plans of each shape collected per iteration, each drawn from the seed:
    # the quick shapes get several, so that a step's median rests on more
    # than one plan's tree layout
    PLANS = (8, 3, 1)
    steps = tuple(
        f"collect {'x'.join(map(str, s))} ({n} plans per iteration)"
        for s, n in zip(inputs.COLLECT_SHAPES, PLANS)
    )

    def setup(self, ctx: Context) -> None:
        rng = random.Random(ctx.seed)
        self.plans = []
        for step, (sizes, n) in enumerate(zip(inputs.COLLECT_SHAPES, self.PLANS)):
            for _ in range(n):
                plan, subtasks = inputs.plan_shape(rng, sizes)
                ids = [s["id"] for s in subtasks]
                trees = task_model.parse_behavior_plan(plan, ids)
                specs = [
                    task_model.SubtaskSpec(
                        id=s["id"],
                        summary=s["summary"],
                        factors=tuple(
                            task_model.UncertainFactor(name=f["name"], domain=tuple(f["domain"]))
                            for f in s["factors"]
                        ),
                    )
                    for s in subtasks
                ]
                all_paths = {p.path_id for ps in paths_per_subtask(trees) for p in ps}
                docs = (json.dumps(plan, indent=2) + "\n", json.dumps(subtasks, indent=2) + "\n")
                self.plans.append((step, sizes, docs, trees, specs, all_paths))

    def iteration(self, ctx: Context, i: int) -> None:
        for k, (step, sizes, docs, trees, specs, all_paths) in enumerate(self.plans):
            paths = pipeline.RunPaths(ctx.work / f"collect-{i}-{k}")
            paths.ensure()
            (paths.plans / "plan_document.json").write_text(docs[0])
            (paths.plans / "subtasks.json").write_text(docs[1])
            ctx.attempted += 1
            selected, cov = ctx.timed(step, self._collect, paths, trees, specs)
            ctx.check(
                covered_constraints(selected) == all_paths
                and len(selected) == max(sizes)
                and cov[0].ratio == 1.0
                and cov[1].ratio == 1.0
                and cov[2] == 1.0,
                f"collect {sizes}",
                "selection does not cover every path with max(path-set size) trajectories",
            )
            shutil.rmtree(paths.root, ignore_errors=True)

    @staticmethod
    def _collect(paths, trees, specs):
        selected = pipeline.stage_collect(paths)
        return selected, (
            metrics.logic_coverage(trees, selected),
            metrics.logic_coverage_atomic(specs, selected),
            metrics.selection_jaccard(trees, selected),
        )


class SolverDense:
    """Seeded single-room scenes through encode, relaxation, metadata, physics."""

    name = "solver_dense"
    steps = (
        "6-object scene, grid 0.1 (two per iteration)",
        "12-object scene, grid 0.1 (one per iteration)",
        "contradiction scene, grid 0.25 (two per iteration)",
    )
    op_unit = "scenes"
    POOL = 64  # distinct iteration batches before the pool repeats

    def setup(self, ctx: Context) -> None:
        rng = random.Random(ctx.seed)
        self.pool = []
        for b in range(self.POOL):
            self.pool.append((
                [inputs.layout_scene(rng, 6, f"b{b}-small{k}") for k in range(2)],
                [inputs.layout_scene(rng, 12, f"b{b}-large")],
                [inputs.contradiction_scene(rng, f"b{b}-contra{k}") for k in range(2)],
            ))

    def iteration(self, ctx: Context, i: int) -> None:
        for step, scenes in enumerate(self.pool[i % self.POOL]):
            for scene in scenes:
                ctx.attempted += 1
                try:
                    problem, solution, report = ctx.timed(step, self._build, scene)
                except CLASSIFIED as exc:
                    ctx.fail(scene.name, exc)
                    continue
                ladder = [c.id for c in problem.relax_order()]
                ctx.check(
                    report.ok
                    and solution.relaxed == ladder[: len(solution.relaxed)]
                    and (bool(solution.relaxed) or not scene.contradiction),
                    scene.name,
                    "scene fails physics or relaxed constraints are not a ladder prefix",
                )

    @staticmethod
    def _build(scene):
        config = solver.SolverConfig(grid_resolution=scene.grid, seed=scene.solver_seed)
        problem = solver.encode(scene.rooms, [], [], scene.objects, scene.relations, config)
        solution = solver.solve_with_relaxation(problem)
        relation_of = {c.id: c.relation_index for c in problem.constraints}
        env = environment.EnvironmentSpec(
            id=scene.name,
            task_id="solver_dense",
            trajectory_id=scene.name,
            rooms=scene.rooms,
            objects=scene.objects,
            relations=scene.relations,
            placements=solution.placements,
            relaxed_relations=sorted(relation_of[c] for c in solution.relaxed),
        )
        env.metadata = environment.rebuild_metadata(env)
        environment.serialize_environment(env)
        return problem, solution, validator.validate_physics(env)


class Recheck:
    """validate, simulate and report over a run directory built once in setup."""

    name = "recheck"
    steps = ("stage_validate", "stage_simulate", "stage_report")
    op_unit = "recheck passes"

    def setup(self, ctx: Context) -> None:
        self.bundle = _load_bundle(ctx.root / FIXTURE)
        self.paths = pipeline.RunPaths(ctx.work / "recheck")
        shutil.rmtree(self.paths.root, ignore_errors=True)
        pipeline.stage_derive(self.paths, self.bundle)
        pipeline.stage_collect(self.paths)
        pipeline.stage_build(self.paths, self.bundle, grid=0.1)

    def iteration(self, ctx: Context, i: int) -> None:
        ctx.attempted += 1
        checked = ctx.timed(0, pipeline.stage_validate, self.paths, self.bundle)
        sim = ctx.timed(1, pipeline.stage_simulate, self.paths, self.bundle)
        report = ctx.timed(2, pipeline.stage_report, self.paths)
        cov = report["coverage"]
        ctx.check(
            checked["physics"]["pass_rate"] == 1.0
            and checked["validity"]["rate"] == 1.0
            and _verdicts(sim) == EXPECTED_VERDICTS
            and sim["fault_detection_rate"] == 1.0
            and (cov["paths"]["covered"], cov["atomic"]["covered"]) == (7, 8),
            "recheck",
            "physics, validity, verdict matrix or coverage changed",
        )


WORKLOADS = {w.name: w for w in (Fixture, CollectWide, SolverDense, Recheck)}
