"""Provider channels with record/replay cassettes.

Plan derivation and scene construction both talk to a text provider (an LLM
in live runs) through a channel. Every request is a (kind, body) pair; the
body is canonicalized JSON and its hash keys the cassette, so a recorded
session replays byte-for-byte and the pipeline stays deterministic offline.

A channel instance serves one in-flight request at a time.
"""

from __future__ import annotations

import hashlib
import json
import urllib.request
from pathlib import Path

from .errors import ProviderError

# request kinds, plan side
DECOMPOSE = "decompose"
IDENTIFY_FACTORS = "identify_factors"
GENERATE_PLAN = "generate_plan"
REFINE = "refine"
# request kinds, scene side
DESIGN_FLOOR_PLAN = "design_floor_plan"
SELECT_OBJECTS = "select_objects"
PROPOSE_RELATIONS = "propose_relations"
REVISE_RELATIONS = "revise_relations"


def canonical_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def request_hash(kind: str, body) -> str:
    payload = canonical_json({"kind": kind, "body": body})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# request body builders (shared with the fixture build script)
# ---------------------------------------------------------------------------


def decompose_request(task) -> dict:
    return {
        "task": {
            "id": task.id,
            "description": task.description,
            "environment_type": task.environment_type,
        }
    }


def identify_factors_request(task_id: str, subtask_id: str, summary: str) -> dict:
    return {"task_id": task_id, "subtask": {"id": subtask_id, "summary": summary}}


def generate_plan_request(task_id: str, subtask_id: str, factors) -> dict:
    return {
        "task_id": task_id,
        "subtask_id": subtask_id,
        "factors": [
            {"name": f.name, "domain": list(f.domain), "aliases": list(f.aliases)}
            for f in factors
        ],
    }


def refine_request(stage: str, subtask_id: str, previous, violations) -> dict:
    return {
        "stage": stage,
        "subtask_id": subtask_id,
        "previous": previous,
        "violations": list(violations),
    }


def design_floor_plan_request(task_id: str, trajectory_id: str) -> dict:
    return {"task_id": task_id, "trajectory_id": trajectory_id}


def select_objects_request(task_id: str, trajectory_id: str, room_ids) -> dict:
    return {"task_id": task_id, "trajectory_id": trajectory_id, "rooms": list(room_ids)}


def propose_relations_request(task_id: str, trajectory_id: str, objects) -> dict:
    return {
        "task_id": task_id,
        "trajectory_id": trajectory_id,
        "objects": [
            {"id": o["id"], "room": o["room"], "category": o["category"]} for o in objects
        ],
    }


def revise_relations_request(task_id: str, trajectory_id: str, previous, conflicts) -> dict:
    return {
        "task_id": task_id,
        "trajectory_id": trajectory_id,
        "previous": previous,
        "conflicts": list(conflicts),
    }


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


class ReplayChannel:
    """Serves responses from a recorded cassette, keyed by request hash."""

    def __init__(self, records):
        self._by_hash = {}
        for rec in records:
            self._by_hash[rec["request_hash"]] = rec["response_body"]

    def send(self, kind: str, body):
        key = request_hash(kind, body)
        if key not in self._by_hash:
            raise ProviderError(
                f"cassette has no record for a {kind!r} request (hash {key[:12]}...)"
            )
        return self._by_hash[key]


class RecordingChannel:
    """Replays known exchanges and captures the ones it forwards to a live channel.

    ``known`` holds cassette records already on disk. A request that matches
    one, or an exchange captured earlier in this run, is answered from it, so
    the run sees exactly what a later replay of the cassette will serve.
    """

    def __init__(self, inner, known=()):
        self._inner = inner
        self._by_hash = {rec["request_hash"]: rec["response_body"] for rec in known}
        self.records: list[dict] = []

    def send(self, kind: str, body):
        key = request_hash(kind, body)
        if key in self._by_hash:
            return self._by_hash[key]
        response = self._inner.send(kind, body)
        self._by_hash[key] = response
        self.records.append(
            {
                "request_kind": kind,
                "request_hash": key,
                "request_body": body,
                "response_body": response,
            }
        )
        return response


class HttpChannel:
    """POSTs {"kind", "body"} as JSON to a live endpoint, expects {"response"}."""

    def __init__(self, endpoint: str, timeout: float = 60.0):
        self.endpoint = endpoint
        self.timeout = timeout

    def send(self, kind: str, body):
        payload = json.dumps({"kind": kind, "body": body}).encode("utf-8")
        req = urllib.request.Request(
            self.endpoint, data=payload, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                data = json.loads(resp.read().decode("utf-8"))
        except (OSError, ValueError) as exc:
            raise ProviderError(f"live endpoint failed for {kind!r}: {exc}") from exc
        if not isinstance(data, dict) or "response" not in data:
            raise ProviderError(f"live endpoint returned no 'response' field for {kind!r}")
        return data["response"]


def load_cassette(path) -> list[dict]:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ProviderError(f"cannot read cassette {path}: {exc}") from exc
    records = doc.get("records") if isinstance(doc, dict) else None
    if not isinstance(records, list):
        raise ProviderError(f"cassette {path} has no 'records' list")
    for rec in records:
        if not isinstance(rec, dict) or not {
            "request_kind",
            "request_hash",
            "request_body",
            "response_body",
        } <= set(rec):
            raise ProviderError(f"cassette {path} contains a malformed record")
    return records


def save_cassette(path, records) -> None:
    # no key sorting: response bodies can hold decision trees whose branch
    # order is meaningful, and replay must hand back exactly what was said
    doc = {"records": list(records)}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def open_channel(cassette=None, live_endpoint=None):
    """Pick the channel for a run: replay, record-over-live, or live.

    Record mode serves what an existing cassette file already holds and
    sends only the misses to the live endpoint.
    """
    if live_endpoint and cassette:
        known = load_cassette(cassette) if Path(cassette).is_file() else []
        return RecordingChannel(HttpChannel(live_endpoint), known)
    if live_endpoint:
        return HttpChannel(live_endpoint)
    if cassette:
        return ReplayChannel(load_cassette(cassette))
    raise ProviderError("need a cassette, a live endpoint, or both")


# ---------------------------------------------------------------------------
# typed provider fronts
# ---------------------------------------------------------------------------


def _expect_list_of_dicts(value, kind: str, keys) -> list[dict]:
    if not isinstance(value, list):
        raise ProviderError(f"{kind} response must be a list")
    for item in value:
        if not isinstance(item, dict) or not set(keys) <= set(item):
            raise ProviderError(f"{kind} response item missing keys {sorted(keys)}")
    return value


def _checked_factor_list(value, kind: str) -> list[dict]:
    factors = _expect_list_of_dicts(value, kind, ("name", "domain"))
    for f in factors:
        if not isinstance(f["domain"], list) or len(f["domain"]) < 2:
            raise ProviderError(
                f"factor {f.get('name')!r} needs a domain of at least two values"
            )
    return factors


class PlanProvider:
    def __init__(self, channel):
        self.channel = channel

    def decompose(self, task) -> list[dict]:
        out = self.channel.send(DECOMPOSE, decompose_request(task))
        subtasks = _expect_list_of_dicts(out, DECOMPOSE, ("id", "summary"))
        ids = [s["id"] for s in subtasks]
        if len(set(ids)) != len(ids):
            raise ProviderError("decompose returned duplicate subtask ids")
        if not subtasks:
            raise ProviderError("decompose returned no subtasks")
        return subtasks

    def identify_factors(self, task_id: str, subtask_id: str, summary: str) -> list[dict]:
        out = self.channel.send(
            IDENTIFY_FACTORS, identify_factors_request(task_id, subtask_id, summary)
        )
        return _checked_factor_list(out, IDENTIFY_FACTORS)

    def generate_plan(self, task_id: str, subtask_id: str, factors):
        return self.channel.send(
            GENERATE_PLAN, generate_plan_request(task_id, subtask_id, factors)
        )

    def refine(self, stage: str, subtask_id: str, previous, violations):
        out = self.channel.send(
            REFINE, refine_request(stage, subtask_id, previous, violations)
        )
        if stage == "factors":
            return _checked_factor_list(out, REFINE)
        return out


class SceneProvider:
    def __init__(self, channel):
        self.channel = channel

    def design_floor_plan(self, task_id: str, trajectory_id: str) -> dict:
        out = self.channel.send(
            DESIGN_FLOOR_PLAN, design_floor_plan_request(task_id, trajectory_id)
        )
        if not isinstance(out, dict) or "rooms" not in out:
            raise ProviderError("design_floor_plan response needs a 'rooms' list")
        return out

    def select_objects(self, task_id: str, trajectory_id: str, room_ids) -> list[dict]:
        out = self.channel.send(
            SELECT_OBJECTS, select_objects_request(task_id, trajectory_id, room_ids)
        )
        return _expect_list_of_dicts(out, SELECT_OBJECTS, ("id", "description", "room", "category"))

    def propose_relations(self, task_id: str, trajectory_id: str, objects) -> list[dict]:
        out = self.channel.send(
            PROPOSE_RELATIONS, propose_relations_request(task_id, trajectory_id, objects)
        )
        return _expect_list_of_dicts(out, PROPOSE_RELATIONS, ("kind", "subject"))

    def revise_relations(self, task_id: str, trajectory_id: str, previous, conflicts) -> list[dict]:
        out = self.channel.send(
            REVISE_RELATIONS,
            revise_relations_request(task_id, trajectory_id, previous, conflicts),
        )
        return _expect_list_of_dicts(out, REVISE_RELATIONS, ("kind", "subject"))
