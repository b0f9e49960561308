"""The provider channel and its cassette.

Plan derivation and scene construction both talk to a text provider (an LLM
in live runs) through a channel. Every request is a (kind, body) pair; the
body is canonicalized JSON and its hash keys the cassette, so a recorded
session replays byte-for-byte and the pipeline stays deterministic offline.

One channel class, ReplayChannel, serves every mode: it answers from its
records and sends a miss to a live endpoint when it has one, recording the
exchange. Replay, live and record mode differ only in which of the two the
channel starts with, and in whether the caller saves the records.

A channel instance serves one in-flight request at a time.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import ProviderError, SchemaViolation
from .jsonio import parse_as, read_json, write_json
from .task_model import SubtaskSpec, UncertainFactor

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

# seconds a live endpoint gets to answer one request
HTTP_TIMEOUT_S = 60.0


def canonical_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def request_hash(kind: str, body) -> str:
    payload = canonical_json({"kind": kind, "body": body})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


class ReplayChannel:
    """Serves responses from cassette records, keyed by request hash.

    A request no record answers goes to ``live`` when one is given; the new
    exchange is appended to ``records``, so a repeat is answered from it and
    ``records`` is what a later replay of the saved cassette will serve.
    Without ``live`` a miss is a ProviderError.
    """

    def __init__(self, records, live=None):
        self.records = list(records)
        self.live = live
        self._by_hash = {rec["request_hash"]: rec["response_body"] for rec in self.records}

    def send(self, kind: str, body):
        key = request_hash(kind, body)
        if key in self._by_hash:
            return self._by_hash[key]
        if self.live is None:
            raise ProviderError(
                f"cassette has no record for a {kind!r} request (hash {key[:12]}...)"
            )
        response = self.live.send(kind, body)
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

    def __init__(self, endpoint: str):
        self.endpoint = endpoint

    def send(self, kind: str, body):
        # imported here: replay never sends, and the http and ssl stack
        # would otherwise load with every envcover import
        import urllib.request

        payload = json.dumps({"kind": kind, "body": body}).encode("utf-8")
        req = urllib.request.Request(
            self.endpoint, data=payload, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(req, timeout=HTTP_TIMEOUT_S) as resp:
                data = json.loads(resp.read().decode("utf-8"))
        except (OSError, ValueError) as exc:
            raise ProviderError(f"live endpoint failed for {kind!r}: {exc}") from exc
        if not isinstance(data, dict) or "response" not in data:
            raise ProviderError(f"live endpoint returned no 'response' field for {kind!r}")
        return data["response"]


@dataclass
class _Exchange:
    request_kind: str
    request_hash: str
    request_body: object
    response_body: object


@dataclass
class _Cassette:
    records: tuple[_Exchange, ...]


def load_cassette(path) -> list[dict]:
    cassette = parse_as(_Cassette, read_json(path, "cassette"), f"cassette {path}")
    # each exchange's fields in declared order, the order save_cassette keeps
    return [vars(exchange) for exchange in cassette.records]


def save_cassette(path, records) -> None:
    # no key sorting: response bodies can hold decision trees whose branch
    # order is meaningful, and replay must hand back exactly what was said
    write_json(path, {"records": list(records)}, ordered=True)


def open_channel(cassette=None, live_endpoint=None) -> ReplayChannel:
    """The channel for a run, in replay, live or record mode.

    Replay answers from the cassette alone, live sends every new request to
    the endpoint, and record does both: the cassette file may not exist yet,
    and the caller saves the channel's ``records`` back to it.
    """
    records = []
    if cassette and (live_endpoint is None or Path(cassette).is_file()):
        records = load_cassette(cassette)
    live = HttpChannel(live_endpoint) if live_endpoint else None
    return ReplayChannel(records, live)


# ---------------------------------------------------------------------------
# typed provider fronts
# ---------------------------------------------------------------------------


def _typed(kind: str, tp, response):
    """A plan-side response as type tp; a malformed one is a ProviderError."""
    try:
        return parse_as(tp, response, f"{kind} response")
    except SchemaViolation as exc:
        raise ProviderError(str(exc)) from exc


class PlanProvider:
    def __init__(self, channel):
        self.channel = channel

    def decompose(self, task) -> tuple[SubtaskSpec, ...]:
        out = self.channel.send(DECOMPOSE, {"task": asdict(task)})
        subtasks = _typed(DECOMPOSE, tuple[SubtaskSpec, ...], out)
        ids = [s.id for s in subtasks]
        if len(set(ids)) != len(ids):
            raise ProviderError("decompose returned duplicate subtask ids")
        if not subtasks:
            raise ProviderError("decompose returned no subtasks")
        return subtasks

    def identify_factors(self, task_id: str, subtask_id: str, summary: str) -> tuple[UncertainFactor, ...]:
        body = {"task_id": task_id, "subtask": {"id": subtask_id, "summary": summary}}
        out = self.channel.send(IDENTIFY_FACTORS, body)
        return _typed(IDENTIFY_FACTORS, tuple[UncertainFactor, ...], out)

    def generate_plan(self, task_id: str, subtask_id: str, factors):
        body = {
            "task_id": task_id,
            "subtask_id": subtask_id,
            "factors": [asdict(f) for f in factors],
        }
        return self.channel.send(GENERATE_PLAN, body)

    def refine(self, stage: str, subtask_id: str, previous, violations):
        body = {
            "stage": stage,
            "subtask_id": subtask_id,
            "previous": previous,
            "violations": list(violations),
        }
        out = self.channel.send(REFINE, body)
        if stage == "factors":
            return _typed(REFINE, tuple[UncertainFactor, ...], out)
        return out


class SceneProvider:
    """The scene-side requests; scene.py parses their responses."""

    def __init__(self, channel):
        self.channel = channel

    def design_floor_plan(self, task_id: str, trajectory_id: str):
        body = {"task_id": task_id, "trajectory_id": trajectory_id}
        return self.channel.send(DESIGN_FLOOR_PLAN, body)

    def select_objects(self, task_id: str, trajectory_id: str, room_ids):
        body = {"task_id": task_id, "trajectory_id": trajectory_id, "rooms": list(room_ids)}
        return self.channel.send(SELECT_OBJECTS, body)

    def propose_relations(self, task_id: str, trajectory_id: str, objects):
        body = {
            "task_id": task_id,
            "trajectory_id": trajectory_id,
            "objects": [{"id": o.id, "room": o.room, "category": o.category} for o in objects],
        }
        return self.channel.send(PROPOSE_RELATIONS, body)

    def revise_relations(self, task_id: str, trajectory_id: str, previous, conflicts):
        body = {
            "task_id": task_id,
            "trajectory_id": trajectory_id,
            "previous": previous,
            "conflicts": list(conflicts),
        }
        return self.channel.send(REVISE_RELATIONS, body)
