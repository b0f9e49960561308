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

from dataclasses import dataclass, field

from .errors import SchemaMismatch, SchemaViolation
from .jsonio import read_json
from .task_model import normalize_text
from .trajectories import LogicalTrajectory

_OPS = ("in", "not_in", "present_not_in")


@dataclass(frozen=True)
class Condition:
    op: str
    values: tuple[str, ...]

    def evaluate(self, metadata: dict, entity: str, attribute: str) -> bool:
        present = metadata.get((entity, "presence")) == "present"
        value = metadata.get((entity, attribute))
        if self.op == "in":
            return present and value in self.values
        if self.op == "not_in":
            return not present or value is None or value not in self.values
        # present_not_in
        return present and (value is None or value not in self.values)


def parse_condition(raw, where: str) -> Condition:
    """A Condition from the "op" and "values" of a record; where names it in errors."""
    op = raw.get("op") if isinstance(raw, dict) else None
    if op not in _OPS:
        raise SchemaViolation(f"{where} has unknown op {op!r}")
    values = raw.get("values")
    if not isinstance(values, list) or not values:
        raise SchemaViolation(f"{where} lists no values")
    return Condition(op=op, values=tuple(str(v) for v in values))


@dataclass(frozen=True)
class QueryBinding:
    entity: str
    attribute: str
    responses: dict  # normalized response text -> Condition

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
    queries: dict = field(default_factory=dict)  # normalized query -> QueryBinding
    leaf_goals: dict = field(default_factory=dict)  # normalized leaf -> tuple[GoalSpec]
    predicates: dict = field(default_factory=dict)  # key -> (entity, attribute, Condition)
    tracked_entities: tuple = ()
    required_entities: tuple = ()
    required_attributes: dict = field(default_factory=dict)  # entity -> tuple of attrs

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


def parse_schema(doc: dict) -> TaskSchema:
    if not isinstance(doc, dict):
        raise SchemaViolation("task schema must be a JSON object")
    for key in ("task_id", "agent_start", "queries", "leaf_goals"):
        if key not in doc:
            raise SchemaViolation(f"task schema is missing {key!r}")
    queries = {}
    for text, raw in doc["queries"].items():
        for key in ("entity", "attribute", "responses"):
            if key not in raw:
                raise SchemaViolation(f"query binding {text!r} is missing {key!r}")
        responses = {
            normalize_text(resp): parse_condition(cond, f"query {text!r} response {resp!r}")
            for resp, cond in raw["responses"].items()
        }
        queries[normalize_text(text)] = QueryBinding(
            entity=raw["entity"], attribute=raw["attribute"], responses=responses
        )
    leaf_goals = {}
    for leaf, goals in doc["leaf_goals"].items():
        parsed = []
        for g in goals:
            for key in ("entity", "attribute", "value"):
                if key not in g:
                    raise SchemaViolation(f"goal under {leaf!r} is missing {key!r}")
            parsed.append(
                GoalSpec(entity=g["entity"], attribute=g["attribute"], value=str(g["value"]))
            )
        leaf_goals[normalize_text(leaf)] = tuple(parsed)
    predicates = {}
    for key, raw in doc.get("predicates", {}).items():
        for need in ("entity", "attribute"):
            if need not in raw:
                raise SchemaViolation(f"predicate {key!r} is missing {need!r}")
        predicates[key] = (
            raw["entity"],
            raw["attribute"],
            parse_condition(raw, f"predicate {key!r}"),
        )
    required_attributes = {
        entity: tuple(attrs)
        for entity, attrs in doc.get("required_attributes", {}).items()
    }
    return TaskSchema(
        task_id=doc["task_id"],
        agent_start=doc["agent_start"],
        queries=queries,
        leaf_goals=leaf_goals,
        predicates=predicates,
        tracked_entities=tuple(doc.get("tracked_entities", ())),
        required_entities=tuple(doc.get("required_entities", ())),
        required_attributes=required_attributes,
    )


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
