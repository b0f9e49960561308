"""Scene construction: from a logical trajectory to a placed environment.

The build walks the generation chain: ask the provider for a floor plan,
then for objects (bounding boxes come from the asset catalog), then for
spatial relations. Each response is read as the environment's records,
which check their own fields, so a malformed part is a SchemaViolation
before anything is solved. The draft passes through the solver's
pre-solve rules (solver.compatibility_conflicts, the checks encode
enforces); their conflict records go back to the provider for revision, a
bounded number of rounds. The surviving draft is encoded as a CSP and
solved with relaxation; the placed result carries derived metadata and is
checked against the trajectory's query conditions before it is returned.

Failures keep their causes apart: UnsatisfiableScene means geometry or
relation sets that cannot be realized, TrajectoryMismatch means the scene
is physically fine but does not realize the requested decision logic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .assets import AssetCatalog, retrieve_asset
from .environment import (
    Doorway,
    EnvironmentSpec,
    ObjectSpec,
    Room,
    SpatialRelation,
    Window,
    rebuild_metadata,
)
from .errors import CoreUnsat, SchemaViolation, TrajectoryMismatch, UnsatisfiableScene
from .jsonio import parse_as
from .providers import SceneProvider
from .schema import TaskSchema, unmet_conditions
from .solver import SolverConfig, compatibility_conflicts, encode, solve_with_relaxation
from .trajectories import LogicalTrajectory

# revision rounds a conflicting relation set gets before the build gives up
MAX_REVISIONS = 3


@dataclass
class BuildOutcome:
    environment: EnvironmentSpec
    solver_stats: dict = field(default_factory=dict)
    revision_rounds: int = 0


# ---------------------------------------------------------------------------
# response parsing
# ---------------------------------------------------------------------------


@dataclass
class _FloorPlanResponse:
    # the solver sets each opening's position
    rooms: tuple[Room, ...]
    doorways: tuple[Doorway, ...] = ()
    windows: tuple[Window, ...] = ()


@dataclass
class _ObjectChoice:
    """An object as the provider chooses it; its size comes from the catalog."""

    id: str
    description: str
    room: str
    category: str
    attributes: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        # the solver's support plan reads it as a number
        height = self.attributes.get("mount_height", "0")
        try:
            finite = math.isfinite(float(height))
        except ValueError:
            finite = False
        if not finite:
            raise SchemaViolation(f"mount_height must be a finite number, got {height!r}")


@dataclass
class _RelationProposal:
    kind: str
    subject: str
    reference: str | None = None
    priority: str | None = None  # None: from the subject's category


def parse_floor_plan(doc) -> tuple[list[Room], list[Doorway], list[Window]]:
    plan = parse_as(_FloorPlanResponse, doc, "floor plan")
    if not plan.rooms:
        raise SchemaViolation("floor plan has no rooms")
    return list(plan.rooms), list(plan.doorways), list(plan.windows)


def resolve_objects(raw_objects, catalog: AssetCatalog) -> list[ObjectSpec]:
    """Fill bounding boxes from the catalog; keep provider order. Each
    object takes the choice's fields and its own copy of the attributes."""
    choices = parse_as(tuple[_ObjectChoice, ...], raw_objects, "object list")
    out = []
    for k, choice in enumerate(choices):
        size = retrieve_asset(catalog, choice.description).size
        try:
            out.append(
                ObjectSpec(
                    id=choice.id,
                    description=choice.description,
                    room=choice.room,
                    size=size,
                    category=choice.category,
                    attributes=dict(choice.attributes),
                )
            )
        except SchemaViolation as exc:
            raise SchemaViolation(f"malformed object list: {exc}", f"[{k}]") from None
    return out


def parse_relations(raw_relations, objects: list[ObjectSpec]) -> list[SpatialRelation]:
    """Relations from provider output; priority defaults to the subject's category."""
    category = {o.id: o.category for o in objects}
    proposals = parse_as(tuple[_RelationProposal, ...], raw_relations, "relation list")
    out = []
    for i, proposal in enumerate(proposals):
        priority = proposal.priority
        if priority is None:
            subject_cat = category.get(proposal.subject, "enrichment")
            priority = "task" if subject_cat == "task_related" else "enrichment"
        try:
            out.append(SpatialRelation(proposal.kind, proposal.subject, proposal.reference, priority))
        except SchemaViolation as exc:
            raise SchemaViolation(f"malformed relation list: {exc}", f"[{i}]") from None
    return out


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def _serialize_relations(relations: list[SpatialRelation]) -> list[dict]:
    out = []
    for rel in relations:
        item = {"kind": rel.kind, "subject": rel.subject, "priority": rel.priority}
        if rel.reference is not None:
            item["reference"] = rel.reference
        out.append(item)
    return out


def build_environment(
    provider: SceneProvider,
    catalog: AssetCatalog,
    schema: TaskSchema,
    trajectory: LogicalTrajectory,
    env_id: str,
    config: SolverConfig | None = None,
) -> BuildOutcome:
    config = config or SolverConfig()
    task_id = schema.task_id
    trajectory_id = trajectory.trajectory_id

    plan_doc = provider.design_floor_plan(task_id, trajectory_id)
    rooms, doorways, windows = parse_floor_plan(plan_doc)

    raw_objects = provider.select_objects(task_id, trajectory_id, [r.id for r in rooms])
    objects = resolve_objects(raw_objects, catalog)

    raw_relations = provider.propose_relations(task_id, trajectory_id, objects)
    relations = parse_relations(raw_relations, objects)

    rounds = 0
    conflicts = compatibility_conflicts(objects, relations)
    while conflicts and rounds < MAX_REVISIONS:
        rounds += 1
        raw_relations = provider.revise_relations(
            task_id, trajectory_id, _serialize_relations(relations), conflicts
        )
        relations = parse_relations(raw_relations, objects)
        conflicts = compatibility_conflicts(objects, relations)
    if conflicts:
        summary = "; ".join(c["message"] for c in conflicts)
        raise UnsatisfiableScene(
            f"relation set for {trajectory_id!r} stayed incompatible after "
            f"{rounds} revision rounds: {summary}"
        )

    problem = encode(rooms, doorways, windows, objects, relations, config)
    try:
        solution = solve_with_relaxation(problem)
    except CoreUnsat as exc:
        raise UnsatisfiableScene(
            f"no placement satisfies the core relations for {trajectory_id!r}: {exc}"
        ) from exc

    relation_index_of = {c.id: c.relation_index for c in problem.constraints}
    relaxed = sorted(relation_index_of[cid] for cid in solution.relaxed)

    placed_doorways = [replace(d, position=solution.door_positions[d.id]) for d in doorways]
    placed_windows = [replace(w, position=solution.window_positions[w.id]) for w in windows]

    env = EnvironmentSpec(
        id=env_id,
        task_id=task_id,
        trajectory_id=trajectory_id,
        rooms=rooms,
        doorways=placed_doorways,
        windows=placed_windows,
        objects=objects,
        relations=relations,
        placements=solution.placements,
        relaxed_relations=relaxed,
        tracked_entities=sorted(schema.tracked_entities),
    )
    env.metadata = rebuild_metadata(env)

    failures = unmet_conditions(schema, trajectory, env.metadata)
    if failures:
        raise TrajectoryMismatch(
            f"environment {env_id!r} does not realize {trajectory_id!r}:\n  "
            + "\n  ".join(failures)
        )
    return BuildOutcome(
        environment=env,
        solver_stats=dict(solution.stats),
        revision_rounds=rounds,
    )
