"""Stage pipeline over a run directory.

Each stage reads its inputs from the run directory (or the task bundle) and
writes its outputs back, so stages can run one at a time or chained by
run_all. run_all passes every stage one _Held record, the ``held``
parameter, with what the run has parsed or made so far: the provider
channel, so derive and build share one cassette load, the schema, and what
each earlier stage returned (task, plans, selection, universe count and the
physics, validity and simulation summaries). So one run_all reads each
bundle file once and re-reads no document it wrote but the scene files. A
stage run on its own gets an empty record and reads all its inputs itself.
The scene files are read once, after build, and not taken from build's
return value, because rounding on write makes the file's scene differ from
the one in memory and the validator must check the file. validate and
simulate parse each scene in full, since their verdicts depend on its
geometry; the report reads each scene as a _SceneRef, its trajectory id
alone, and in run_all takes the refs of the scenes validate parsed.
Layout under the run root:

    plans/             task, plan document, factors, derivation report
    trajectories/      universe count and the selected minimal set
    environments/      one serialized environment per selected trajectory
    reports/           build stats, physics, validity, simulation, report
    manifest.json      config echo and wall-clock timings

Every artifact except manifest.json is byte-deterministic for a fixed task
bundle, seed, and grid: reruns may be compared file-by-file. The manifest is
the one place wall-clock time appears.

A task bundle is a directory holding task.json plus, by convention,
schema.json, action_model.json, catalog.json, cassette.json, and policies/.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .assets import load_catalog
from .derivation import DerivationResult, derive
from .environment import EnvironmentSpec, deserialize_environment, serialize_environment
from .errors import ConfigError, MissingInput, SchemaViolation
from .jsonio import parse_as, read_json, read_text, write_json, write_text
from .metrics import logic_coverage, logic_coverage_atomic, selection_jaccard, share
from .providers import PlanProvider, SceneProvider, open_channel, save_cassette
from .scene import build_environment
from .schema import load_schema
from .simulation import (
    DEFAULT_BUDGET,
    detected,
    load_action_model,
    load_policy,
    run_policy,
    scenario_validity,
)
from .solver import SolverConfig
from .task_model import SubtaskSpec, TaskSpec, parse_behavior_plan
# cartesian_trajectories and minimal_trajectory_selection go unused: bench/tracing.py wraps them here
from .trajectories import (
    LogicalTrajectory,
    cartesian_trajectories,
    cover_path_sets,
    minimal_trajectory_selection,
    paths_per_subtask,
    serialize_trajectory,
)
from .validator import validate_physics

REFERENCE_POLICY_LABEL = "correct"


@dataclass(frozen=True)
class TaskBundle:
    task_file: Path
    schema_file: Path
    action_model_file: Path
    catalog_file: Path
    cassette_file: Path | None
    policies_dir: Path | None


def resolve_bundle(task_path: str, cassette: str | None = None, catalog: str | None = None) -> TaskBundle:
    """Locate bundle files from --task plus optional overrides."""
    p = Path(task_path)
    if p.is_dir():
        base, task_file = p, p / "task.json"
    else:
        base, task_file = p.parent, p
    if not task_file.is_file():
        raise ConfigError(f"no task file at {task_file}")

    def sibling(name: str) -> Path:
        return base / name

    cassette_file = Path(cassette) if cassette else sibling("cassette.json")
    policies = sibling("policies")
    return TaskBundle(
        task_file=task_file,
        schema_file=sibling("schema.json"),
        action_model_file=sibling("action_model.json"),
        catalog_file=Path(catalog) if catalog else sibling("catalog.json"),
        cassette_file=cassette_file if cassette_file.is_file() or cassette else None,
        policies_dir=policies if policies.is_dir() else None,
    )


def load_task(path: Path) -> TaskSpec:
    return parse_as(TaskSpec, read_json(path, "task file"), f"task file {path}")


class RunPaths:
    def __init__(self, root):
        self.root = Path(root)
        self.plans = self.root / "plans"
        self.trajectories = self.root / "trajectories"
        self.environments = self.root / "environments"
        self.reports = self.root / "reports"

    def ensure(self) -> None:
        for d in (self.root, self.plans, self.trajectories, self.environments, self.reports):
            try:
                d.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot make run directory {d}: {exc}") from exc


def _read_json(path: Path, what: str):
    if not path.is_file():
        raise MissingInput(f"{what} not found at {path}; run the earlier stage first")
    return read_json(path, what)


def _read_as(tp, path: Path, what: str):
    """The run-dir document at path, read as a tp."""
    return parse_as(tp, _read_json(path, what), f"{what} {path}")


class _Held:
    """What one run has parsed or made so far, by name, for its later stages.

    run_all makes one and passes it to every stage it calls; a stage called
    on its own makes an empty one, so it reads each input from disk and
    makes the run directories itself. Nothing here outlives the call that
    made it.
    """

    def __init__(self):
        self._values = {}

    def get(self, name: str, read, *args):
        """The value held under name, else read(*args), held from now on."""
        if name not in self._values:
            self._values[name] = read(*args)
        return self._values[name]

    def keep(self, name: str, value) -> None:
        self._values[name] = value


def _open_provider_channel(bundle: TaskBundle, live_endpoint: str | None):
    cassette = bundle.cassette_file
    if live_endpoint is None:
        if cassette is None:
            raise ConfigError(
                "no exchange source: pass --cassette, --live-endpoint, or keep a "
                "cassette.json next to the task file"
            )
        if not cassette.is_file():
            raise ConfigError(f"no cassette at {cassette}; pass --live-endpoint to record one")
    return open_channel(cassette=cassette, live_endpoint=live_endpoint)


def _finish_channel(channel, bundle: TaskBundle, live_endpoint: str | None) -> None:
    """In record mode, write the cassette the channel now holds."""
    if live_endpoint and bundle.cassette_file:
        save_cassette(bundle.cassette_file, channel.records)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def stage_derive(
    paths: RunPaths,
    bundle: TaskBundle,
    live_endpoint: str | None = None,
    max_rounds: int = 3,
    *,
    held: _Held | None = None,
) -> DerivationResult:
    held = held or _Held()
    task = load_task(bundle.task_file)
    channel = held.get("channel", _open_provider_channel, bundle, live_endpoint)
    held.get("dirs", paths.ensure)
    try:
        result = derive(PlanProvider(channel), task, max_rounds=max_rounds)
    finally:
        _finish_channel(channel, bundle, live_endpoint)
    held.keep("task", task)
    held.keep("plans", (result.subtasks, result.trees))

    write_json(paths.plans / "task.json", task)
    # response order in the plan's branch maps fixes the paths and so the selection
    write_json(paths.plans / "plan_document.json", result.plan_document, ordered=True)
    write_json(paths.plans / "subtasks.json", result.subtasks)
    report = {"status": result.status, "rounds_used": result.rounds_used, "violations": result.violations}
    write_json(paths.plans / "derivation_report.json", report)
    return result


def _load_plans(paths: RunPaths):
    plan_doc = _read_json(paths.plans / "plan_document.json", "plan document")
    subtasks = list(_read_as(tuple[SubtaskSpec, ...], paths.plans / "subtasks.json", "subtask list"))
    trees = parse_behavior_plan(plan_doc, [s.id for s in subtasks])
    return subtasks, trees


def stage_collect(paths: RunPaths, *, held: _Held | None = None) -> list:
    held = held or _Held()
    held.get("dirs", paths.ensure)
    _, trees = held.get("plans", _load_plans, paths)
    path_sets = paths_per_subtask(trees)
    selected = cover_path_sets(path_sets)
    universe = _Universe(math.prod(len(ps) for ps in path_sets))
    held.keep("selected", selected)
    held.keep("universe", universe)
    write_json(paths.trajectories / "universe.json", universe)
    write_json(
        paths.trajectories / "selected.json",
        {"count": len(selected), "trajectories": [serialize_trajectory(t) for t in selected]},
    )
    return selected


@dataclass
class _Selection:
    trajectories: tuple[LogicalTrajectory, ...]


def _load_selected(paths: RunPaths) -> list:
    path = paths.trajectories / "selected.json"
    return list(_read_as(_Selection, path, "selected trajectories").trajectories)


def _env_file(paths: RunPaths, index: int) -> Path:
    return paths.environments / f"env-{index:03d}.json"


# (file stem, parsed scene) for each environments/env-*.json, in name order
_Scenes = list[tuple[str, EnvironmentSpec]]


def _scene_files(paths: RunPaths) -> list[Path]:
    files = sorted(paths.environments.glob("env-*.json"))
    if not files:
        raise MissingInput(
            f"no environments under {paths.environments}; run the build stage first"
        )
    return files


def _load_environments(paths: RunPaths) -> _Scenes:
    return [(f.stem, _load_environment(f)) for f in _scene_files(paths)]


def _load_environment(path: Path) -> EnvironmentSpec:
    text = read_text(path, "environment")
    try:
        return deserialize_environment(text)
    except SchemaViolation as exc:
        raise SchemaViolation(f"environment {path}: {exc}") from exc


def stage_build(
    paths: RunPaths,
    bundle: TaskBundle,
    live_endpoint: str | None = None,
    seed: int = 0,
    grid: float = 0.1,
    *,
    held: _Held | None = None,
) -> list[EnvironmentSpec]:
    """One environment per selected trajectory, every scene solved under
    one config: its store of grid lists and value orders lives as long as
    the build, so a later scene replays what earlier ones rounded and drew."""
    held = held or _Held()
    config = SolverConfig(grid_resolution=grid, seed=seed)
    channel = held.get("channel", _open_provider_channel, bundle, live_endpoint)
    held.get("dirs", paths.ensure)
    selected = held.get("selected", _load_selected, paths)
    schema = held.get("schema", load_schema, bundle.schema_file)
    catalog = load_catalog(bundle.catalog_file)

    provider = SceneProvider(channel)
    try:
        outcomes = [
            build_environment(provider, catalog, schema, trajectory, f"env-{i:03d}", config)
            for i, trajectory in enumerate(selected)
        ]
    finally:
        _finish_channel(channel, bundle, live_endpoint)

    stats = {}
    environments = []
    for i, outcome in enumerate(outcomes):
        env = outcome.environment
        write_text(_env_file(paths, i), serialize_environment(env))
        environments.append(env)
        stats[env.id] = {
            "assignments": outcome.solver_stats.get("assignments", 0),
            "backtracks": outcome.solver_stats.get("backtracks", 0),
            "relaxed_relations": list(env.relaxed_relations),
            "revision_rounds": outcome.revision_rounds,
        }
    # an earlier build of a larger selection leaves files the later stages
    # would read as this build's
    written = {_env_file(paths, i) for i in range(len(outcomes))}
    for path in paths.environments.glob("env-*.json"):
        if path not in written:
            try:
                path.unlink()
            except OSError as exc:
                raise ConfigError(f"cannot remove stale scene {path}: {exc}") from exc
    write_json(paths.reports / "build_stats.json", {"environments": stats})
    return environments


def _trajectories_of(scenes, selected) -> dict[str, LogicalTrajectory]:
    """The selected trajectory each scene realizes, by scene name.

    scenes holds (file stem, scene) pairs, a scene being anything with a
    trajectory_id: an EnvironmentSpec or a _SceneRef.
    """
    by_id = {t.trajectory_id: t for t in selected}
    realized = {}
    for name, scene in scenes:
        if scene.trajectory_id not in by_id:
            raise MissingInput(
                f"environment {name} realizes {scene.trajectory_id!r}, which is not "
                "in the selected trajectory set"
            )
        realized[name] = by_id[scene.trajectory_id]
    return realized


def stage_validate(paths: RunPaths, bundle: TaskBundle, *, held: _Held | None = None) -> dict:
    """Physics and validity of each scene."""
    held = held or _Held()
    held.get("dirs", paths.ensure)
    schema = held.get("schema", load_schema, bundle.schema_file)
    envs = held.get("envs", _load_environments, paths)
    physics = {}
    validity = {}
    for name, env in envs:
        report = validate_physics(env)
        failed = {f.rule for f in report.failures}
        physics[name] = {
            "ok": report.ok,
            # a dimension passes when none of the scene's failures carries its rule
            **{f"{rule}_ok": rule not in failed for rule in ("floor_plan", "entity", "relation")},
            "failures": report.failures,
            "skipped_relations": report.skipped_relations,
        }
        reasons = scenario_validity(env, schema, report)
        validity[name] = {"valid": not reasons, "reasons": reasons}
    physics_doc = {"pass_rate": share([p["ok"] for p in physics.values()]), "environments": physics}
    validity_doc = {"rate": share([v["valid"] for v in validity.values()]), "environments": validity}
    write_json(paths.reports / "physics.json", physics_doc)
    write_json(paths.reports / "validity.json", validity_doc)
    held.keep("physics", _PhysicsSummary(physics_doc["pass_rate"]))
    held.keep("validity", _ValiditySummary(validity_doc["rate"]))
    held.keep("scene_refs", [(name, _SceneRef(env.trajectory_id)) for name, env in envs])
    return {"physics": physics_doc, "validity": validity_doc}


def stage_simulate(
    paths: RunPaths,
    bundle: TaskBundle,
    budget: int = DEFAULT_BUDGET,
    *,
    held: _Held | None = None,
) -> dict:
    """Every policy against every scene."""
    held = held or _Held()
    held.get("dirs", paths.ensure)
    if bundle.policies_dir is None:
        raise ConfigError(f"no policies directory next to {bundle.task_file}")
    schema = held.get("schema", load_schema, bundle.schema_file)
    actions = load_action_model(bundle.action_model_file)
    selected = held.get("selected", _load_selected, paths)
    envs = held.get("envs", _load_environments, paths)
    if len(selected) != len(envs):
        raise MissingInput(
            f"{len(envs)} environments but {len(selected)} selected trajectories; "
            "rerun the build stage"
        )

    policies = {}
    for policy_file in sorted(bundle.policies_dir.glob("*.json")):
        policy = load_policy(policy_file)
        label = policy.label or policy_file.stem
        if label in policies:
            raise ConfigError(
                f"policies {policies[label][0]} and {policy_file.name} both carry "
                f"the label {label!r}"
            )
        policies[label] = (policy_file.name, policy)
    trajectories = _trajectories_of(envs, selected)

    doc = {"budget": budget, "policies": {}}
    total_ticks = 0
    for label in sorted(policies):
        file_name, policy = policies[label]
        per_env = {}
        outcomes = []
        for name, env in envs:
            outcome = run_policy(policy, env, trajectories[name], schema, actions, budget=budget)
            outcomes.append(outcome)
            total_ticks += outcome.ticks
            per_env[name] = {
                "verdict": outcome.verdict,
                "ticks": outcome.ticks,
                "detail": outcome.detail,
            }
        doc["policies"][label] = {
            "file": file_name,
            "detected": detected(outcomes),
            "environments": per_env,
        }
    faulty = sorted(set(policies) - {REFERENCE_POLICY_LABEL})
    doc["faulty_policies"] = faulty
    doc["fault_detection_rate"] = share([doc["policies"][label]["detected"] for label in faulty])
    doc["total_ticks"] = total_ticks
    write_json(paths.reports / "simulation.json", doc)
    held.keep("simulation", _SimulationSummary(doc["fault_detection_rate"], total_ticks))
    return doc


# the fields of the earlier stages' documents that stage_report reads, a
# scene file's trajectory id (_SceneRef) among them; in run_all the stages
# that write or parse them hold these for it


@dataclass
class _Universe:
    count: int


@dataclass
class _PhysicsSummary:
    pass_rate: float


@dataclass
class _ValiditySummary:
    rate: float


@dataclass
class _SimulationSummary:
    fault_detection_rate: float
    total_ticks: int


@dataclass
class _SceneRef:
    trajectory_id: str


def _load_scene_refs(paths: RunPaths) -> list[tuple[str, _SceneRef]]:
    """(file stem, _SceneRef) for each environments/env-*.json, in name order."""
    return [(f.stem, _read_as(_SceneRef, f, "environment")) for f in _scene_files(paths)]


def stage_report(paths: RunPaths, *, held: _Held | None = None) -> dict:
    """The final report."""
    held = held or _Held()
    held.get("dirs", paths.ensure)
    subtasks, trees = held.get("plans", _load_plans, paths)
    task = held.get("task", _read_as, TaskSpec, paths.plans / "task.json", "task echo")
    universe = held.get(
        "universe", _read_as, _Universe, paths.trajectories / "universe.json", "trajectory universe"
    )
    selected = held.get("selected", _load_selected, paths)
    refs = held.get("scene_refs", _load_scene_refs, paths)
    reports = paths.reports
    physics = held.get(
        "physics", _read_as, _PhysicsSummary, reports / "physics.json", "physics report"
    )
    validity = held.get(
        "validity", _read_as, _ValiditySummary, reports / "validity.json", "validity report"
    )
    simulation = held.get(
        "simulation", _read_as, _SimulationSummary, reports / "simulation.json", "simulation report"
    )

    realized_ids = {t.trajectory_id for t in _trajectories_of(refs, selected).values()}
    realized = [t for t in selected if t.trajectory_id in realized_ids]
    paths_stat = logic_coverage(trees, realized)
    atomic_stat = logic_coverage_atomic(subtasks, realized)
    doc = {
        "task_id": task.id,
        "trajectories": {
            "universe": universe.count,
            "selected": len(selected),
            "realized": len(realized),
        },
        "coverage": {
            "paths": {
                "covered": paths_stat.covered,
                "universe": paths_stat.universe,
                "ratio": paths_stat.ratio,
            },
            "atomic": {
                "covered": atomic_stat.covered,
                "universe": atomic_stat.universe,
                "ratio": atomic_stat.ratio,
            },
            "jaccard_selected_vs_universe": selection_jaccard(trees, realized),
        },
        "physics": {"pass_rate": physics.pass_rate},
        "validity": {"rate": validity.rate},
        "simulation": {
            "fault_detection_rate": simulation.fault_detection_rate,
            "total_ticks": simulation.total_ticks,
        },
        "environments": sorted(name for name, _ in refs),
    }
    write_json(paths.reports / "report.json", doc)
    return doc


def run_all(
    out_dir: str,
    task_path: str,
    cassette: str | None = None,
    catalog: str | None = None,
    live_endpoint: str | None = None,
    seed: int = 0,
    grid: float = 0.1,
    budget: int = DEFAULT_BUDGET,
    max_rounds: int = 3,
) -> dict:
    """All stages in order; returns the final report document.

    Wall-clock timings land in manifest.json and nowhere else, so two runs
    with the same inputs match byte-for-byte on every other file.
    """
    import time

    SolverConfig(grid_resolution=grid, seed=seed)  # rejects a bad grid before any stage writes
    paths = RunPaths(out_dir)
    bundle = resolve_bundle(task_path, cassette=cassette, catalog=catalog)
    timings = []

    def timed(name: str, fn):
        started = time.monotonic()
        result = fn()
        timings.append({"name": name, "seconds": round(time.monotonic() - started, 3)})
        return result

    held = _Held()
    derivation = timed(
        "derive", lambda: stage_derive(paths, bundle, live_endpoint, max_rounds, held=held)
    )
    if derivation.status != "ok":
        raise MissingInput(
            "derivation finished with violations "
            f"({len(derivation.violations)}); not building scenes from a "
            "failing plan"
        )
    timed("collect", lambda: stage_collect(paths, held=held))
    timed(
        "build",
        lambda: stage_build(paths, bundle, live_endpoint, seed=seed, grid=grid, held=held),
    )
    # validate reads the scene files as build wrote them, simulate takes that
    # parse and report the trajectory id of each scene in it
    timed("validate", lambda: stage_validate(paths, bundle, held=held))
    timed("simulate", lambda: stage_simulate(paths, bundle, budget=budget, held=held))
    report = timed("report", lambda: stage_report(paths, held=held))

    manifest = {
        "task": str(bundle.task_file),
        "config": {
            "seed": seed,
            "grid": grid,
            "budget": budget,
            "max_rounds": max_rounds,
            "live_endpoint": live_endpoint or "",
        },
        "stages": timings,
    }
    write_json(paths.root / "manifest.json", manifest)
    return report
