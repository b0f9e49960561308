"""Behavior-tree policy execution against derived environment state.

The simulator is symbolic: world state is the environment's metadata table
plus an agent with a location and one pair of hands. Policies are behavior
trees (sequence, selector, condition, action); the action vocabulary is
data-driven, loaded from an action model file that declares parameters,
causal preconditions, and effects for every verb.

Verdicts separate failure modes the way a test harness needs them:

- pass: the tree returned success and every goal of the environment's
  logical trajectory holds afterwards.
- causal_violation: the policy executed an action whose preconditions were
  false (placing an object it never picked up, for instance). Conditions
  failing is normal control flow; actions forcing the world is not.
- goal_unreached: execution finished without cheating, but the tree failed
  or the goals do not hold.
- executor_error: the node budget ran out or the policy referenced unknown
  predicates, verbs, or the wrong arity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .environment import EnvironmentSpec
from .errors import SchemaMismatch, SchemaViolation
from .jsonio import parse_as, read_json
from .schema import Condition, TaskSchema, goals_for_trajectory
from .trajectories import LogicalTrajectory
from .validator import PhysicsReport

VERDICT_PASS = "pass"
VERDICT_CAUSAL = "causal_violation"
VERDICT_GOAL = "goal_unreached"
VERDICT_ERROR = "executor_error"

DEFAULT_BUDGET = 1000

AGENT = "agent"


# ---------------------------------------------------------------------------
# policy documents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BtCondition:
    predicate: str


@dataclass(frozen=True)
class BtAction:
    text: str


@dataclass(frozen=True)
class BtSequence:
    children: tuple


@dataclass(frozen=True)
class BtSelector:
    children: tuple


@dataclass(frozen=True)
class PolicySpec:
    label: str
    root: object


def _parse_node(doc, where: str):
    if not isinstance(doc, dict) or len(doc) != 1:
        raise SchemaViolation(f"{where}: node must be an object with one key")
    key, value = next(iter(doc.items()))
    if key == "condition":
        if not isinstance(value, str) or not value:
            raise SchemaViolation(f"{where}: condition needs a predicate name")
        return BtCondition(predicate=value)
    if key == "action":
        if not isinstance(value, str) or not value.strip():
            raise SchemaViolation(f"{where}: action needs a command string")
        return BtAction(text=value.strip())
    if key in ("sequence", "selector"):
        if not isinstance(value, list) or not value:
            raise SchemaViolation(f"{where}: {key} needs a non-empty child list")
        children = tuple(
            _parse_node(child, f"{where}/{key}[{i}]") for i, child in enumerate(value)
        )
        return BtSequence(children) if key == "sequence" else BtSelector(children)
    raise SchemaViolation(f"{where}: unknown node type {key!r}")


def parse_policy(doc: dict) -> PolicySpec:
    if not isinstance(doc, dict) or "root" not in doc:
        raise SchemaViolation("policy must be an object with a 'root' node")
    label = doc.get("label", "")
    if not isinstance(label, str):
        raise SchemaViolation(f"policy label must be a string, got {type(label).__name__}")
    return PolicySpec(label=label, root=_parse_node(doc["root"], "root"))


def load_policy(path) -> PolicySpec:
    return parse_policy(read_json(path, "policy"))


# ---------------------------------------------------------------------------
# action model
# ---------------------------------------------------------------------------


# precondition kind -> the keys it needs besides "kind"
_PRECONDITION_KEYS = {
    "holding_nothing": (),
    "holding": ("entity",),
    "agent_at": ("entity",),
    "present": ("entity",),
    "attr": ("entity", "attribute"),
    "container_open": ("target",),
}


@dataclass(frozen=True)
class Precondition:
    kind: str
    entity: str = ""  # "$name" is a parameter
    target: str = ""  # container_open only
    attribute: str = ""  # attr only, with op and values
    op: str = ""
    values: tuple[str, ...] = ()

    def __post_init__(self):
        keys = _PRECONDITION_KEYS.get(self.kind)
        if keys is None:
            raise SchemaViolation(f"unknown precondition kind {self.kind!r}")
        for key in keys:
            if not getattr(self, key):
                raise SchemaViolation(f"precondition {self.kind!r} needs {key!r}")
        if self.kind == "attr":
            Condition(self.op, self.values)  # raises unless op and values make a condition


@dataclass(frozen=True)
class Effect:
    entity: str  # "$name" is a parameter
    attribute: str
    value: str  # "$name" is a parameter


@dataclass(frozen=True)
class ActionDef:
    params: tuple[str, ...]
    preconditions: tuple[Precondition, ...] = ()
    effects: tuple[Effect, ...] = ()

    def __post_init__(self):
        tokens = [t for pre in self.preconditions for t in (pre.entity, pre.target)]
        for token in tokens + [t for e in self.effects for t in (e.entity, e.value)]:
            if token.startswith("$") and token[1:] not in self.params:
                raise SchemaViolation(f"{token} names no parameter of the action")


@dataclass
class ActionModel:
    actions: dict[str, ActionDef]

    def get(self, name: str) -> ActionDef | None:
        return self.actions.get(name)


def parse_action_model(doc) -> ActionModel:
    return parse_as(ActionModel, doc, "action model")


def load_action_model(path) -> ActionModel:
    return parse_action_model(read_json(path, "action model"))


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


@dataclass
class SimOutcome:
    verdict: str
    ticks: int
    detail: str = ""


class _Halt(Exception):
    def __init__(self, verdict: str, detail: str):
        self.verdict = verdict
        self.detail = detail
        super().__init__(detail)


def initial_world(env: EnvironmentSpec, schema: TaskSchema) -> dict:
    """World state from environment metadata plus the agent.

    Raises SchemaMismatch when an entity the schema needs attributes for is
    present without them; the simulation could not answer its queries.
    """
    world = dict(env.metadata)
    world[(AGENT, "location")] = schema.agent_start
    world[(AGENT, "holding")] = "nothing"
    for entity, attrs in schema.required_attributes.items():
        if world.get((entity, "presence")) != "present":
            continue
        for attr in attrs:
            if (entity, attr) not in world:
                raise SchemaMismatch(
                    f"entity {entity!r} is present but metadata lacks {attr!r}"
                )
    return world


def _resolve(token: str, args: dict) -> str:
    # parse_action_model checks that every "$name" names a parameter
    return args[token[1:]] if token.startswith("$") else token


def _precondition_holds(pre: Precondition, world: dict, args: dict) -> bool:
    kind = pre.kind
    if kind == "holding_nothing":
        return world.get((AGENT, "holding")) == "nothing"
    subject = _resolve(pre.target if kind == "container_open" else pre.entity, args)
    if kind == "holding":
        return world.get((AGENT, "holding")) == subject
    if kind == "agent_at":
        return world.get((AGENT, "location")) == subject
    if kind == "present":
        return world.get((subject, "presence")) == "present"
    if kind == "attr":
        return Condition(pre.op, pre.values).evaluate(world, subject, pre.attribute)
    # container_open: a target "<container>_in" needs an openable container open
    if not subject.endswith("_in"):
        return True
    container = subject[: -len("_in")]
    if world.get((container, "openable")) != "yes":
        return True
    return world.get((container, "door_state")) == "open"


def run_policy(
    policy: PolicySpec,
    env: EnvironmentSpec,
    trajectory: LogicalTrajectory,
    schema: TaskSchema,
    actions: ActionModel,
    budget: int = DEFAULT_BUDGET,
) -> SimOutcome:
    if env.trajectory_id != trajectory.trajectory_id:
        raise SchemaMismatch(
            f"environment realizes {env.trajectory_id!r}, got trajectory "
            f"{trajectory.trajectory_id!r}"
        )
    world = initial_world(env, schema)
    goals = goals_for_trajectory(schema, trajectory)
    ticks = [0]

    def tick() -> None:
        if ticks[0] >= budget:
            raise _Halt(VERDICT_ERROR, f"node budget of {budget} exhausted")
        ticks[0] += 1

    def run_node(node) -> bool:
        tick()
        if isinstance(node, BtCondition):
            predicate = schema.predicates.get(node.predicate)
            if predicate is None:
                raise _Halt(VERDICT_ERROR, f"unknown predicate {node.predicate!r}")
            return predicate.evaluate(world, predicate.entity, predicate.attribute)
        if isinstance(node, BtAction):
            parts = node.text.split()
            verb, arg_values = parts[0], parts[1:]
            spec = actions.get(verb)
            if spec is None:
                raise _Halt(VERDICT_ERROR, f"unknown action verb {verb!r}")
            if len(arg_values) != len(spec.params):
                raise _Halt(
                    VERDICT_ERROR,
                    f"action {verb!r} takes {len(spec.params)} arguments, got {len(arg_values)}",
                )
            args = dict(zip(spec.params, arg_values))
            for pre in spec.preconditions:
                if not _precondition_holds(pre, world, args):
                    raise _Halt(
                        VERDICT_CAUSAL,
                        f"action '{node.text}' violates precondition {pre.kind}",
                    )
            for effect in spec.effects:
                entity = _resolve(effect.entity, args)
                world[(entity, effect.attribute)] = _resolve(effect.value, args)
            return True
        if isinstance(node, BtSequence):
            for child in node.children:
                if not run_node(child):
                    return False
            return True
        # BtSelector
        for child in node.children:
            if run_node(child):
                return True
        return False

    try:
        success = run_node(policy.root)
    except _Halt as halt:
        return SimOutcome(verdict=halt.verdict, ticks=ticks[0], detail=halt.detail)

    unmet = [g for g in goals if not g.satisfied(world)]
    if success and not unmet:
        return SimOutcome(verdict=VERDICT_PASS, ticks=ticks[0])
    if not success:
        detail = "behavior tree returned failure"
    else:
        detail = "unmet goals: " + ", ".join(
            f"({g.entity}, {g.attribute}) != {g.value}" for g in unmet
        )
    return SimOutcome(verdict=VERDICT_GOAL, ticks=ticks[0], detail=detail)


# ---------------------------------------------------------------------------
# scenario validity and fault detection
# ---------------------------------------------------------------------------


def scenario_validity(env: EnvironmentSpec, schema: TaskSchema, physics: PhysicsReport) -> list[str]:
    """Why this environment is no usable test scenario; empty when it is.

    Physics must pass on all three dimensions and every required task entity
    must be present.
    """
    reasons: list[str] = []
    if not physics.ok:
        # each check emits only its own rule, floor_plan then entity then relation
        dims = dict.fromkeys(f.rule for f in physics.failures)
        reasons.append("physics validation failed: " + ", ".join(dims))
    placed = {o.id for o in env.objects}
    missing = [e for e in schema.required_entities if e not in placed]
    if missing:
        reasons.append("lacks task-related objects: " + ", ".join(missing))
    return reasons


def detected(outcomes: list[SimOutcome]) -> bool:
    """A faulty policy counts as detected when any environment trips it."""
    return any(o.verdict != VERDICT_PASS for o in outcomes)
