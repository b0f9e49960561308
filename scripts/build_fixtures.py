#!/usr/bin/env python3
"""Regenerate the clean_living_room fixture family.

Produces, under src/envcover/fixtures/clean_living_room/:

- task.json           the task definition
- cassette.json       recorded provider exchanges for derivation and the
                      three minimal-trajectory scenes
- schema.json         query bindings, predicates, leaf goals
- action_model.json   the simulator's action vocabulary
- catalog.json        asset catalog with precomputed embeddings
- policies/*.json     four behavior-tree policies (one correct, three faulty)

plans.json is the source of truth for the decision trees and is read, not
written. The cassette is recorded, not written by hand: derivation and scene
building run against a channel whose live side answers from the tables
below, and the exchanges that channel records are the cassette. The script
refuses to write anything if derivation, scene building, validation, or the
expected policy verdict matrix fails.

    python scripts/build_fixtures.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from envcover.assets import build_catalog, retrieve_asset, save_catalog
from envcover.derivation import derive
from envcover.jsonio import read_json, write_json
from envcover.providers import (
    DECOMPOSE,
    DESIGN_FLOOR_PLAN,
    GENERATE_PLAN,
    IDENTIFY_FACTORS,
    PROPOSE_RELATIONS,
    SELECT_OBJECTS,
    PlanProvider,
    ReplayChannel,
    SceneProvider,
    save_cassette,
)
from envcover.scene import build_environment
from envcover.schema import parse_schema
from envcover.simulation import (
    VERDICT_CAUSAL,
    VERDICT_GOAL,
    VERDICT_PASS,
    parse_action_model,
    parse_policy,
    run_policy,
    scenario_validity,
)
from envcover.solver import SolverConfig
from envcover.task_model import TaskSpec
from envcover.trajectories import cover_path_sets, paths_per_subtask
from envcover.validator import validate_physics

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "src" / "envcover" / "fixtures" / "clean_living_room"

TASK = {
    "id": "clean_living_room",
    "description": (
        "Tidy the living room: put any toy left on the floor into the box "
        "matching its type, return any book on the floor to the sofa, and "
        "clean the stain, preferring wet wipes from the table over the wet mop."
    ),
    "environment_type": "indoor living room",
}

SUBTASKS = [
    {"id": "toy", "summary": "Handle any toy lying on the floor."},
    {"id": "book", "summary": "Handle any book lying on the floor."},
    {"id": "stain", "summary": "Clean the stain with an available tool."},
]

FACTORS = {
    "toy": [
        {
            "name": "toy_on_floor",
            "domain": ["YES", "NO"],
            "aliases": ["there is a toy on the floor"],
        },
        {
            "name": "toy_type",
            "domain": ["doll", "other types"],
            "aliases": ["type of the toy", "type of the toy on the floor"],
        },
    ],
    "book": [
        {
            "name": "book_on_floor",
            "domain": ["YES", "NO"],
            "aliases": ["there is a book on the floor"],
        }
    ],
    "stain": [
        {
            "name": "wet_wipe_on_table",
            "domain": ["YES", "NO"],
            "aliases": ["there is a wet wipe on the table", "wet wipe on the table"],
        }
    ],
}

FLOOR_PLAN = {
    "rooms": [
        {
            "id": "living_room",
            "x_min": 0.0,
            "z_min": 0.0,
            "x_max": 6.0,
            "z_max": 5.0,
            "floor_color": "oak",
            "floor_material": "wood",
            "wall_color": "white",
            "wall_material": "plaster",
        }
    ],
    "doorways": [
        {
            "id": "front_door",
            "connects": ["living_room", "exterior"],
            "width": 0.9,
            "height": 2.1,
        }
    ],
    "windows": [
        {
            "id": "north_window",
            "room": "living_room",
            "orientation": "north",
            "width": 1.2,
            "height": 1.0,
            "sill_height": 0.9,
        }
    ],
}

CATALOG_ENTRIES = [
    ("armchair_gray", "a gray armchair", (0.9, 0.8, 0.85)),
    ("book_hardcover", "a hardcover book", (0.25, 0.04, 0.18)),
    ("bookshelf_narrow", "a narrow wooden bookshelf", (0.8, 1.8, 0.3)),
    ("box_red_open", "a red open storage box", (0.5, 0.3, 0.4)),
    ("box_white_open", "a white open storage box", (0.5, 0.3, 0.4)),
    ("lamp_floor", "a tall floor lamp", (0.3, 1.5, 0.3)),
    ("mop_wet", "a wet mop with a long handle", (0.3, 1.2, 0.3)),
    ("picture_framed", "a framed wall picture", (0.6, 0.45, 0.05)),
    ("plant_potted", "a potted green plant", (0.35, 1.0, 0.35)),
    ("rug_round", "a small round rug", (1.0, 0.02, 1.0)),
    ("sofa_fabric", "a brown fabric two seater sofa", (2.0, 0.8, 0.9)),
    ("stain_patch", "a dark stain patch on the floor", (0.4, 0.01, 0.4)),
    ("table_coffee", "a low wooden coffee table", (1.2, 0.5, 0.8)),
    ("toy_car", "a small toy car", (0.25, 0.1, 0.15)),
    ("toy_doll", "a soft doll toy", (0.2, 0.3, 0.15)),
    ("wipes_pack", "a pack of wet wipes", (0.18, 0.08, 0.12)),
]

_BASE_OBJECTS = [
    ("sofa", "a brown fabric two seater sofa", "sofa_fabric", None),
    ("table", "a low wooden coffee table", "table_coffee", None),
    ("red_box", "a red open storage box", "box_red_open", None),
    ("white_box", "a white open storage box", "box_white_open", None),
    ("wet_mop", "a wet mop with a long handle", "mop_wet", None),
    ("stain", "a dark stain patch on the floor", "stain_patch", {"cleanliness": "dirty"}),
]


def objects_for(toy_state: str | None, book_present: bool, wipes_present: bool) -> list[dict]:
    objs = []
    for obj_id, description, _, attributes in _BASE_OBJECTS:
        item = {
            "id": obj_id,
            "description": description,
            "room": "living_room",
            "category": "task_related",
        }
        if attributes:
            item["attributes"] = attributes
        objs.append(item)
    if toy_state == "doll":
        objs.append(
            {
                "id": "toy",
                "description": "a soft doll toy",
                "room": "living_room",
                "category": "task_related",
                "attributes": {"toy_type": "doll"},
            }
        )
    elif toy_state == "car":
        objs.append(
            {
                "id": "toy",
                "description": "a small toy car",
                "room": "living_room",
                "category": "task_related",
                "attributes": {"toy_type": "car"},
            }
        )
    if book_present:
        objs.append(
            {
                "id": "book",
                "description": "a hardcover book",
                "room": "living_room",
                "category": "task_related",
            }
        )
    if wipes_present:
        objs.append(
            {
                "id": "wet_wipes",
                "description": "a pack of wet wipes",
                "room": "living_room",
                "category": "task_related",
            }
        )
    objs.append(
        {
            "id": "plant",
            "description": "a potted green plant",
            "room": "living_room",
            "category": "enrichment",
        }
    )
    objs.append(
        {
            "id": "picture",
            "description": "a framed wall picture",
            "room": "living_room",
            "category": "enrichment",
        }
    )
    return objs


def relations_for(wipes_present: bool) -> list[dict]:
    rels = []
    if wipes_present:
        rels.append({"kind": "on_top_of", "subject": "wet_wipes", "reference": "table"})
    rels.append({"kind": "mounted_on_wall", "subject": "picture"})
    rels.append(
        {"kind": "near", "subject": "red_box", "reference": "sofa", "priority": "enrichment"}
    )
    rels.append({"kind": "edge", "subject": "plant"})
    return rels


SCHEMA = {
    "schema_version": 1,
    "task_id": "clean_living_room",
    "agent_start": "start",
    "tracked_entities": ["toy", "book", "wet_wipes"],
    "required_entities": ["sofa", "table", "red_box", "white_box", "wet_mop", "stain"],
    "required_attributes": {"stain": ["cleanliness"], "toy": ["toy_type"]},
    "queries": {
        "There is a toy on the floor?": {
            "entity": "toy",
            "attribute": "location",
            "responses": {
                "YES": {"op": "in", "values": ["floor"]},
                "NO": {"op": "not_in", "values": ["floor"]},
            },
        },
        "What is the type of the toy on the floor?": {
            "entity": "toy",
            "attribute": "toy_type",
            "responses": {
                "doll": {"op": "in", "values": ["doll"]},
                "other types": {"op": "present_not_in", "values": ["doll"]},
            },
        },
        "There is a book on the floor?": {
            "entity": "book",
            "attribute": "location",
            "responses": {
                "YES": {"op": "in", "values": ["floor"]},
                "NO": {"op": "not_in", "values": ["floor"]},
            },
        },
        "There is a wet wipe on the table?": {
            "entity": "wet_wipes",
            "attribute": "location",
            "responses": {
                "YES": {"op": "in", "values": ["table_top"]},
                "NO": {"op": "not_in", "values": ["table_top"]},
            },
        },
    },
    "predicates": {
        "toy_on_floor": {"entity": "toy", "attribute": "location", "op": "in", "values": ["floor"]},
        "toy_is_doll": {"entity": "toy", "attribute": "toy_type", "op": "in", "values": ["doll"]},
        "book_on_floor": {"entity": "book", "attribute": "location", "op": "in", "values": ["floor"]},
        "wipes_on_table": {
            "entity": "wet_wipes",
            "attribute": "location",
            "op": "in",
            "values": ["table_top"],
        },
    },
    "leaf_goals": {
        "Place the toy in the red box.": [
            {"entity": "toy", "attribute": "location", "value": "red_box_in"}
        ],
        "Place the toy in the white box.": [
            {"entity": "toy", "attribute": "location", "value": "white_box_in"}
        ],
        "Place the book on the sofa.": [
            {"entity": "book", "attribute": "location", "value": "sofa_top"}
        ],
        "Clean stain with the wet wipe.": [
            {"entity": "stain", "attribute": "cleanliness", "value": "clean"}
        ],
        "Clean stain with the wet mop.": [
            {"entity": "stain", "attribute": "cleanliness", "value": "clean"}
        ],
        "Do nothing.": [],
    },
}

ACTION_MODEL = {
    "actions": {
        "noop": {"params": [], "preconditions": [], "effects": []},
        "goto": {
            "params": ["target"],
            "preconditions": [],
            "effects": [{"entity": "agent", "attribute": "location", "value": "$target"}],
        },
        "pick_up": {
            "params": ["obj"],
            "preconditions": [
                {"kind": "present", "entity": "$obj"},
                {"kind": "agent_at", "entity": "$obj"},
                {"kind": "holding_nothing"},
            ],
            "effects": [
                {"entity": "agent", "attribute": "holding", "value": "$obj"},
                {"entity": "$obj", "attribute": "location", "value": "held"},
            ],
        },
        "place": {
            "params": ["obj", "dest"],
            "preconditions": [
                {"kind": "holding", "entity": "$obj"},
                {"kind": "container_open", "target": "$dest"},
            ],
            "effects": [
                {"entity": "agent", "attribute": "holding", "value": "nothing"},
                {"entity": "$obj", "attribute": "location", "value": "$dest"},
            ],
        },
        "open": {
            "params": ["container"],
            "preconditions": [{"kind": "agent_at", "entity": "$container"}],
            "effects": [{"entity": "$container", "attribute": "door_state", "value": "open"}],
        },
        "close": {
            "params": ["container"],
            "preconditions": [{"kind": "agent_at", "entity": "$container"}],
            "effects": [{"entity": "$container", "attribute": "door_state", "value": "closed"}],
        },
        "clean": {
            "params": ["target", "tool"],
            "preconditions": [
                {"kind": "holding", "entity": "$tool"},
                {"kind": "agent_at", "entity": "$target"},
            ],
            "effects": [{"entity": "$target", "attribute": "cleanliness", "value": "clean"}],
        },
        "read": {
            "params": ["obj"],
            "preconditions": [{"kind": "holding", "entity": "$obj"}],
            "effects": [{"entity": "$obj", "attribute": "read_state", "value": "read"}],
        },
    }
}


def _seq(*children):
    return {"sequence": list(children)}


def _sel(*children):
    return {"selector": list(children)}


def _cond(name):
    return {"condition": name}


def _act(text):
    return {"action": text}


def _toy_block(doll_branch, other_branch):
    return _sel(
        _seq(_cond("toy_on_floor"), _sel(_seq(_cond("toy_is_doll"), *doll_branch), _seq(*other_branch))),
        _act("noop"),
    )


_DOLL_OK = [_act("goto toy"), _act("pick_up toy"), _act("goto red_box"), _act("place toy red_box_in")]
_OTHER_OK = [_act("goto toy"), _act("pick_up toy"), _act("goto white_box"), _act("place toy white_box_in")]
_BOOK_OK = _sel(
    _seq(
        _cond("book_on_floor"),
        _act("goto book"),
        _act("pick_up book"),
        _act("goto sofa"),
        _act("place book sofa_top"),
    ),
    _act("noop"),
)
_WIPE_BRANCH = _seq(
    _cond("wipes_on_table"),
    _act("goto wet_wipes"),
    _act("pick_up wet_wipes"),
    _act("goto stain"),
    _act("clean stain wet_wipes"),
)
_MOP_BRANCH = _seq(
    _act("goto wet_mop"),
    _act("pick_up wet_mop"),
    _act("goto stain"),
    _act("clean stain wet_mop"),
)
_STAIN_OK = _sel(_WIPE_BRANCH, _MOP_BRANCH)

POLICIES = {
    "correct": {
        "label": "correct",
        "root": _seq(_toy_block(_DOLL_OK, _OTHER_OK), _BOOK_OK, _STAIN_OK),
    },
    # places the toy it never picked up
    "counterfactual": {
        "label": "counterfactual",
        "root": _seq(
            _toy_block(
                _DOLL_OK,
                [_act("goto white_box"), _act("place toy white_box_in")],
            ),
            _BOOK_OK,
            _STAIN_OK,
        ),
    },
    # picks the doll up, walks to the box, then drops it on the floor
    "unreachable": {
        "label": "unreachable",
        "root": _seq(
            _toy_block(
                [_act("goto toy"), _act("pick_up toy"), _act("goto red_box"), _act("place toy floor")],
                _OTHER_OK,
            ),
            _BOOK_OK,
            _STAIN_OK,
        ),
    },
    # no fallback when the wipes are missing
    "lackbranch": {
        "label": "lackbranch",
        "root": _seq(_toy_block(_DOLL_OK, _OTHER_OK), _BOOK_OK, _WIPE_BRANCH),
    },
}

EXPECTED_VERDICTS = {
    # env keys: (toy_state, book_present, wipes_present)
    "correct": {("doll", True, True): VERDICT_PASS, ("car", False, False): VERDICT_PASS, (None, True, True): VERDICT_PASS},
    "counterfactual": {("doll", True, True): VERDICT_PASS, ("car", False, False): VERDICT_CAUSAL, (None, True, True): VERDICT_PASS},
    "unreachable": {("doll", True, True): VERDICT_GOAL, ("car", False, False): VERDICT_PASS, (None, True, True): VERDICT_PASS},
    "lackbranch": {("doll", True, True): VERDICT_PASS, ("car", False, False): VERDICT_GOAL, (None, True, True): VERDICT_PASS},
}


def trajectory_signature(trajectory) -> tuple:
    """(toy_state, book_present, wipes_present) from a trajectory's steps."""
    toy_state = None
    book_present = False
    wipes_present = False
    for path in trajectory.paths:
        answers = {s.query: s.response for s in path.steps}
        if path.subtask_id == "toy":
            if answers.get("There is a toy on the floor?") == "YES":
                kind = answers.get("What is the type of the toy on the floor?")
                toy_state = "doll" if kind == "doll" else "car"
        elif path.subtask_id == "book":
            book_present = answers.get("There is a book on the floor?") == "YES"
        elif path.subtask_id == "stain":
            wipes_present = answers.get("There is a wet wipe on the table?") == "YES"
    return (toy_state, book_present, wipes_present)


class Responder:
    """A live side for the recording channel, answering from the tables above."""

    def __init__(self, plan_doc: list):
        self.plans = {st["id"]: tree for st, tree in zip(SUBTASKS, plan_doc)}
        # trajectory id -> (toy_state, book_present, wipes_present), set once
        # derivation has fixed the trajectories the scenes realize
        self.signatures: dict[str, tuple] = {}

    def send(self, kind: str, body):
        if kind == DECOMPOSE:
            return SUBTASKS
        if kind == IDENTIFY_FACTORS:
            return FACTORS[body["subtask"]["id"]]
        if kind == GENERATE_PLAN:
            return self.plans[body["subtask_id"]]
        if kind == DESIGN_FLOOR_PLAN:
            return FLOOR_PLAN
        toy_state, book_present, wipes_present = self.signatures[body["trajectory_id"]]
        if kind == SELECT_OBJECTS:
            return objects_for(toy_state, book_present, wipes_present)
        if kind == PROPOSE_RELATIONS:
            return relations_for(wipes_present)
        raise ValueError(f"the fixture has no answer to a {kind!r} request")


def record(plan_doc: list, task: TaskSpec, catalog, schema, actions, policies) -> list[dict]:
    """Run the pipeline against the responder, assert the fixture behaves as
    designed, and return the exchanges recorded on the way."""
    responder = Responder(plan_doc)
    channel = ReplayChannel([], live=responder)
    result = derive(PlanProvider(channel), task)
    assert result.status == "ok", result.violations
    assert [len(paths) for paths in paths_per_subtask(result.trees)] == [3, 2, 2]

    selected = cover_path_sets(paths_per_subtask(result.trees))
    assert len(selected) == 3, f"expected 3 minimal trajectories, got {len(selected)}"
    responder.signatures = {t.trajectory_id: trajectory_signature(t) for t in selected}

    for entry_id, description, _ in CATALOG_ENTRIES:
        got = retrieve_asset(catalog, description).id
        assert got == entry_id, f"retrieval for {description!r} hit {got!r}"

    scene_provider = SceneProvider(channel)
    config = SolverConfig()
    environments = {}
    for i, trajectory in enumerate(selected):
        outcome = build_environment(
            scene_provider, catalog, schema, trajectory, f"env-{i:03d}", config
        )
        env = outcome.environment
        report = validate_physics(env)
        assert report.ok, [str(f.message) for f in report.failures]
        reasons = scenario_validity(env, schema, report)
        assert not reasons, reasons
        environments[trajectory_signature(trajectory)] = (env, trajectory)

    for label, policy_doc in policies.items():
        policy = parse_policy(policy_doc)
        for signature, (env, trajectory) in environments.items():
            outcome = run_policy(policy, env, trajectory, schema, actions)
            expected = EXPECTED_VERDICTS[label][signature]
            assert outcome.verdict == expected, (
                f"{label} on {signature}: expected {expected}, got "
                f"{outcome.verdict} ({outcome.detail})"
            )
    print(f"fixture ok: {len(channel.records)} records, 3 environments, 4 policies")
    return channel.records


def write_fixtures(out_dir: Path) -> None:
    """Record and check the fixture, then write every file of it under out_dir."""
    plan_doc = read_json(FIXTURE_DIR / "plans.json", "plan document")
    task = TaskSpec(**TASK)
    catalog = build_catalog(CATALOG_ENTRIES)
    schema = parse_schema(SCHEMA)
    actions = parse_action_model(ACTION_MODEL)
    records = record(plan_doc, task, catalog, schema, actions, POLICIES)

    (out_dir / "policies").mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "task.json", TASK)
    save_cassette(out_dir / "cassette.json", records)
    write_json(out_dir / "schema.json", SCHEMA)
    write_json(out_dir / "action_model.json", ACTION_MODEL)
    save_catalog(catalog, out_dir / "catalog.json")
    for label, doc in POLICIES.items():
        write_json(out_dir / "policies" / f"{label}.json", doc)


def main() -> int:
    write_fixtures(FIXTURE_DIR)
    print(f"fixtures written to {FIXTURE_DIR}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
