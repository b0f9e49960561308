"""Task schema: the bridge between decision logic and scene state.

A task schema declares, for one task, how every query in its behavior plans
reads the environment (which entity and attribute it inspects, and which
metadata condition each response corresponds to), what each leaf action is
supposed to achieve, which entities are tracked for presence, and which must
exist in any valid scene.

Scene construction uses the query bindings to check that a built environment
actually realizes its logical trajectory; the simulator uses them to answer
queries at runtime and uses leaf goals to judge outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import SchemaMismatch, SchemaViolation
from .jsonio import parse_as, read_json
from .task_model import normalize_text
from .trajectories import LogicalTrajectory

_OPS = ("in", "not_in", "present_not_in")


@dataclass(frozen=True)
class Condition:
    op: str
    values: tuple[str, ...]

    def __post_init__(self):
        if self.op not in _OPS:
            raise SchemaViolation(f"unknown op {self.op!r}")
        if not self.values:
            raise SchemaViolation("a condition needs at least one value")

    def evaluate(self, metadata: dict, entity: str, attribute: str) -> bool:
        present = metadata.get((entity, "presence")) == "present"
        value = metadata.get((entity, attribute))
        if self.op == "in":
            return present and value in self.values
        if self.op == "not_in":
            return not present or value is None or value not in self.values
        # present_not_in
        return present and (value is None or value not in self.values)


@dataclass(frozen=True)
class Predicate(Condition):
    """A condition on one entity's attribute, as a policy's condition node names it."""

    entity: str
    attribute: str


@dataclass(frozen=True)
class QueryBinding:
    entity: str
    attribute: str
    responses: dict[str, Condition]  # normalized response text -> condition

    def condition_for(self, response: str) -> Condition:
        key = normalize_text(response)
        if key not in self.responses:
            raise SchemaMismatch(
                f"response {response!r} has no condition for entity {self.entity!r}"
            )
        return self.responses[key]


@dataclass(frozen=True)
class GoalSpec:
    entity: str
    attribute: str
    value: str

    def satisfied(self, metadata: dict) -> bool:
        return metadata.get((self.entity, self.attribute)) == self.value


@dataclass
class TaskSchema:
    task_id: str
    agent_start: str
    queries: dict[str, QueryBinding]  # normalized query text -> binding
    leaf_goals: dict[str, tuple[GoalSpec, ...]]  # normalized leaf action -> goals
    predicates: dict[str, Predicate] = field(default_factory=dict)
    tracked_entities: tuple[str, ...] = ()
    required_entities: tuple[str, ...] = ()
    required_attributes: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def binding_for(self, query: str) -> QueryBinding:
        key = normalize_text(query)
        if key not in self.queries:
            raise SchemaMismatch(f"query {query!r} is not bound by the task schema")
        return self.queries[key]

    def goals_for_leaf(self, leaf_action: str) -> tuple:
        key = normalize_text(leaf_action)
        if key not in self.leaf_goals:
            raise SchemaMismatch(f"leaf action {leaf_action!r} has no goal binding")
        return self.leaf_goals[key]


def load_schema(path) -> TaskSchema:
    return parse_schema(read_json(path, "task schema"))


def parse_schema(doc) -> TaskSchema:
    """The schema document as a TaskSchema, query, response and leaf keys normalized."""
    schema = parse_as(TaskSchema, doc, "task schema")
    queries = {
        normalize_text(text): replace(
            binding, responses={normalize_text(r): c for r, c in binding.responses.items()}
        )
        for text, binding in schema.queries.items()
    }
    leaf_goals = {normalize_text(leaf): goals for leaf, goals in schema.leaf_goals.items()}
    return replace(schema, queries=queries, leaf_goals=leaf_goals)


def trajectory_conditions(schema: TaskSchema, trajectory: LogicalTrajectory) -> list:
    """Flatten a trajectory into (entity, attribute, condition, source) tuples.

    Source strings name the originating path step for error messages.
    """
    out = []
    for path in trajectory.paths:
        for step in path.steps:
            binding = schema.binding_for(step.query)
            condition = binding.condition_for(step.response)
            source = f"{path.subtask_id}: {normalize_text(step.query)} = {normalize_text(step.response)}"
            out.append((binding.entity, binding.attribute, condition, source))
    return out


def unmet_conditions(schema: TaskSchema, trajectory: LogicalTrajectory, metadata: dict) -> list[str]:
    """Conditions of the trajectory that the metadata fails, as messages."""
    failures = []
    for entity, attribute, condition, source in trajectory_conditions(schema, trajectory):
        if not condition.evaluate(metadata, entity, attribute):
            observed = metadata.get((entity, attribute))
            presence = metadata.get((entity, "presence"), "absent")
            failures.append(
                f"{source}: needs {condition.op} {list(condition.values)} on "
                f"({entity}, {attribute}), observed {observed!r} ({presence})"
            )
    return failures


def goals_for_trajectory(schema: TaskSchema, trajectory: LogicalTrajectory) -> tuple:
    """Union of leaf goals along the trajectory, in path order, deduplicated."""
    out = []
    for path in trajectory.paths:
        for goal in schema.goals_for_leaf(path.leaf_action):
            if goal not in out:
                out.append(goal)
    return tuple(out)
