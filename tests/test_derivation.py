import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

import envcover
from envcover import providers
from envcover.derivation import derive
from envcover.errors import ProviderError
from envcover.providers import (
    HttpChannel,
    PlanProvider,
    ReplayChannel,
    load_cassette,
    request_hash,
    save_cassette,
)
from envcover.task_model import TaskSpec

TASK = TaskSpec(id="demo", description="tidy two shelves", environment_type="indoor")


class ScriptedChannel:
    def __init__(self, responses):
        self.responses = {k: list(v) for k, v in responses.items()}
        self.calls = []

    def send(self, kind, body):
        self.calls.append((kind, body))
        queue = self.responses.get(kind)
        assert queue, f"unscripted request kind {kind!r}"
        return queue.pop(0) if len(queue) > 1 else queue[0]


def factor(name, *domain, aliases=()):
    return {"name": name, "domain": list(domain), "aliases": list(aliases)}


def tree_over(factor_name):
    return {f"is the {factor_name} there?": {"YES": "Handle it.", "NO": "Do nothing."}}


def two_subtask_responses(s2_factor="second thing"):
    return {
        "decompose": [[{"id": "s1", "summary": "first shelf"}, {"id": "s2", "summary": "second shelf"}]],
        "identify_factors": [
            [factor("first thing", "yes", "no")],
            [factor(s2_factor, "yes", "no")],
        ],
        "generate_plan": [tree_over("first thing"), tree_over(s2_factor)],
    }


# ---------------------------------------------------------------------------
# verification primitives
# ---------------------------------------------------------------------------


def subtasks_over(**factor_of):
    """One subtask per keyword, each with one factor and a plan grounded in it."""
    return {
        "decompose": [[{"id": sid, "summary": sid} for sid in factor_of]],
        "identify_factors": [[factor(name, "yes", "no")] for name in factor_of.values()],
        "generate_plan": [tree_over(name) for name in factor_of.values()],
    }


def first_round_violations(responses):
    return derive(PlanProvider(ScriptedChannel(responses)), TASK, max_rounds=1).violations


def test_independence_flags_each_sharing_pair():
    violations = first_round_violations(subtasks_over(a="x", b="x", c="x"))
    assert [v.location for v in violations] == ["a+b", "a+c", "b+c"]
    assert all(v.rule == "independence" for v in violations)
    # names compare as grounding reads them; the message keeps the earlier spelling
    (violation,) = first_round_violations(subtasks_over(a="Toy", b="toy"))
    assert (violation.rule, violation.location) == ("independence", "a+b")
    assert violation.message == "subtasks 'a' and 'b' share factor(s): Toy"


def test_independence_compares_aliases_as_grounding_reads_them():
    # toy (alias doll) and doll: both plans ask "is the doll there?"
    responses = {
        "decompose": [[{"id": "a", "summary": "a"}, {"id": "b", "summary": "b"}]],
        "identify_factors": [
            [factor("toy", "yes", "no", aliases=["Doll"])],
            [factor("doll", "yes", "no")],
        ],
        "generate_plan": [tree_over("doll"), tree_over("doll")],
    }
    (violation,) = first_round_violations(responses)
    assert (violation.rule, violation.location) == ("independence", "a+b")
    assert violation.message == "subtasks 'a' and 'b' share factor(s): toy"
    # an alias on the later side counts too
    responses["identify_factors"] = [
        [factor("doll", "yes", "no")],
        [factor("toy", "yes", "no", aliases=["doll"])],
    ]
    (violation,) = first_round_violations(responses)
    assert violation.message == "subtasks 'a' and 'b' share factor(s): doll"


def test_independent_subtasks_produce_no_violations():
    assert first_round_violations(subtasks_over(a="x", b="y", c="z")) == []


def test_syntax_reports_parse_errors():
    responses = two_subtask_responses()
    responses["generate_plan"][1] = {"q1": {"YES": "a"}, "q2": {"NO": "b"}}  # two roots
    (violation,) = first_round_violations(responses)
    assert (violation.rule, violation.location) == ("syntax", "s2")
    assert "exactly one key" in violation.message


def test_report_orders_independence_before_grounding():
    responses = two_subtask_responses(s2_factor="first thing")
    responses["generate_plan"][1] = {"is the mystery there?": {"YES": "Act.", "NO": "Do nothing."}}
    result = derive(PlanProvider(ScriptedChannel(responses)), TASK, max_rounds=1)
    assert result.status == "exhausted_rounds"
    rules = [v.rule for v in result.violations]
    assert rules[0] == "independence"
    assert "grounding" in rules[1:]


# ---------------------------------------------------------------------------
# derivation rounds
# ---------------------------------------------------------------------------


def test_clean_derivation_finishes_in_one_round():
    channel = ScriptedChannel(two_subtask_responses())
    result = derive(PlanProvider(channel), TASK)
    assert result.status == "ok"
    assert result.rounds_used == 1
    assert [s.id for s in result.subtasks] == ["s1", "s2"]
    assert all(tree is not None for tree in result.trees)
    assert [kind for kind, _ in channel.calls] == [
        "decompose",
        "identify_factors",
        "identify_factors",
        "generate_plan",
        "generate_plan",
    ]


def test_shared_factor_is_refined_on_the_later_subtask():
    responses = two_subtask_responses(s2_factor="first thing")
    # first refinement swaps s2's factor; the old tree then fails grounding,
    # so a second refinement brings the matching plan
    responses["refine"] = [
        [factor("second thing", "yes", "no")],
        tree_over("second thing"),
    ]

    channel = ScriptedChannel(responses)
    result = derive(PlanProvider(channel), TASK)

    refines = [body for kind, body in channel.calls if kind == "refine"]
    assert [r["stage"] for r in refines] == ["factors", "plan"]
    assert all(r["subtask_id"] == "s2" for r in refines)
    assert any("share factor" in v for v in refines[0]["violations"])
    assert refines[1]["violations"]
    assert result.status == "ok"
    assert result.rounds_used == 3
    assert {f.name for f in result.subtasks[1].factors} == {"second thing"}


def test_broken_plan_is_refined_in_place():
    responses = two_subtask_responses()
    responses["generate_plan"][1] = {"q1": {"YES": "a"}, "q2": {"NO": "b"}}  # two roots
    responses["refine"] = [tree_over("second thing")]
    channel = ScriptedChannel(responses)
    result = derive(PlanProvider(channel), TASK)
    assert result.status == "ok"
    assert result.rounds_used == 2
    refines = [body for kind, body in channel.calls if kind == "refine"]
    assert refines[0]["stage"] == "plan" and refines[0]["subtask_id"] == "s2"


def renamed(responses, ids):
    (subtasks,) = responses["decompose"]
    responses["decompose"] = [
        [dict(st, id=new_id) for st, new_id in zip(subtasks, ids)]
    ]
    return responses


def test_a_shared_factor_refines_the_later_subtask_whatever_its_id():
    responses = renamed(two_subtask_responses(s2_factor="first thing"), ["s1+x", "s2"])
    responses["refine"] = [[factor("second thing", "yes", "no")], tree_over("second thing")]
    channel = ScriptedChannel(responses)
    result = derive(PlanProvider(channel), TASK)
    refines = [body for kind, body in channel.calls if kind == "refine"]
    assert [(r["stage"], r["subtask_id"]) for r in refines] == [("factors", "s2"), ("plan", "s2")]
    assert result.status == "ok"


def test_an_ungrounded_plan_is_refined_whatever_its_subtask_id():
    responses = renamed(two_subtask_responses(), ["s1", "shelf/2"])
    responses["generate_plan"][1] = tree_over("mystery")
    responses["refine"] = [tree_over("second thing")]
    channel = ScriptedChannel(responses)
    result = derive(PlanProvider(channel), TASK)
    refines = [body for kind, body in channel.calls if kind == "refine"]
    assert [(r["stage"], r["subtask_id"]) for r in refines] == [("plan", "shelf/2")]
    assert any("mystery" in v for v in refines[0]["violations"])
    assert result.status == "ok"


def test_unfixable_violations_exhaust_rounds_without_raising():
    responses = two_subtask_responses(s2_factor="first thing")
    responses["refine"] = [[factor("first thing", "yes", "no")]]  # keeps clashing
    result = derive(PlanProvider(ScriptedChannel(responses)), TASK, max_rounds=3)
    assert result.status == "exhausted_rounds"
    assert result.rounds_used == 3
    assert result.violations


def test_malformed_refine_factors_are_a_provider_error():
    responses = two_subtask_responses(s2_factor="first thing")
    responses["refine"] = [[{"name": "second thing"}]]  # missing domain
    with pytest.raises(ProviderError):
        derive(PlanProvider(ScriptedChannel(responses)), TASK)


def test_single_value_domain_is_a_provider_error():
    responses = two_subtask_responses()
    responses["identify_factors"][0] = [factor("first thing", "yes")]
    with pytest.raises(ProviderError, match="at least two values"):
        derive(PlanProvider(ScriptedChannel(responses)), TASK)
    responses = two_subtask_responses(s2_factor="first thing")
    responses["refine"] = [[factor("second thing", "yes")]]
    with pytest.raises(ProviderError, match=r"refine response: .*at least two values"):
        derive(PlanProvider(ScriptedChannel(responses)), TASK)


def test_duplicate_subtask_ids_are_a_provider_error():
    responses = two_subtask_responses()
    responses["decompose"] = [[{"id": "s1", "summary": "x"}, {"id": "s1", "summary": "y"}]]
    with pytest.raises(ProviderError):
        derive(PlanProvider(ScriptedChannel(responses)), TASK)


# ---------------------------------------------------------------------------
# fixture cassette replay
# ---------------------------------------------------------------------------


def test_bundle_cassette_derives_the_three_subtask_plan(derived):
    assert derived.status == "ok"
    assert derived.rounds_used == 1
    assert [s.id for s in derived.subtasks] == ["toy", "book", "stain"]
    from envcover.task_model import extract_paths

    assert [len(extract_paths(t)) for t in derived.trees] == [3, 2, 2]


def test_replay_misses_are_reported_with_the_request_kind(cassette_records):
    channel = ReplayChannel(cassette_records)
    with pytest.raises(ProviderError, match="decompose"):
        channel.send("decompose", {"task": {"id": "other", "description": "", "environment_type": ""}})


def test_a_replay_hit_never_calls_live(cassette_records):
    live = ScriptedChannel({})
    channel = ReplayChannel(cassette_records, live)
    first = cassette_records[0]
    assert channel.send(first["request_kind"], first["request_body"]) == first["response_body"]
    assert live.calls == []
    assert channel.records == cassette_records


def test_a_replay_miss_goes_live_once_and_is_recorded():
    live = ScriptedChannel(two_subtask_responses())
    channel = ReplayChannel([], live)
    body = {"task": {"id": "demo"}}
    first = channel.send("decompose", body)
    assert channel.send("decompose", body) == first
    assert live.calls == [("decompose", body)]
    assert channel.records == [
        {
            "request_kind": "decompose",
            "request_hash": request_hash("decompose", body),
            "request_body": body,
            "response_body": first,
        }
    ]


# ---------------------------------------------------------------------------
# record and replay round trip
# ---------------------------------------------------------------------------


def test_recorded_session_replays_identically(tmp_path):
    inner = ScriptedChannel(two_subtask_responses())
    recorder = ReplayChannel([], inner)
    first = derive(PlanProvider(recorder), TASK)
    assert first.status == "ok"
    assert len(recorder.records) == 5

    path = tmp_path / "cassette.json"
    save_cassette(path, recorder.records)
    replayed = derive(PlanProvider(ReplayChannel(load_cassette(path))), TASK)
    assert replayed.status == "ok"
    assert replayed.plan_document == first.plan_document
    assert [s.id for s in replayed.subtasks] == [s.id for s in first.subtasks]


def test_cassette_preserves_branch_order(tmp_path):
    # response order inside a stored tree is meaningful and must survive a
    # save/load cycle even though the rest of the file is pretty-printed
    inner = ScriptedChannel(two_subtask_responses())
    recorder = ReplayChannel([], inner)
    derive(PlanProvider(recorder), TASK)
    path = tmp_path / "cassette.json"
    save_cassette(path, recorder.records)
    for record in load_cassette(path):
        if record["request_kind"] == "generate_plan":
            (root,) = record["response_body"].values()
            assert list(root.keys()) == ["YES", "NO"]


# ---------------------------------------------------------------------------
# live channel
# ---------------------------------------------------------------------------


class _EchoHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        if payload["kind"] == "decompose":
            response = [{"id": "s1", "summary": "only shelf"}]
        elif payload["kind"] == "identify_factors":
            response = [factor("first thing", "yes", "no")]
        else:
            response = tree_over("first thing")
        body = json.dumps({"response": response}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_http_channel_round_trip():
    server = HTTPServer(("127.0.0.1", 0), _EchoHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        endpoint = f"http://127.0.0.1:{server.server_port}/"
        result = derive(PlanProvider(HttpChannel(endpoint)), TASK)
        assert result.status == "ok"
        assert [s.id for s in result.subtasks] == ["s1"]
    finally:
        server.shutdown()


def test_http_channel_wraps_transport_failures(monkeypatch):
    monkeypatch.setattr(providers, "HTTP_TIMEOUT_S", 0.5)
    channel = HttpChannel("http://127.0.0.1:9/")
    with pytest.raises(ProviderError):
        channel.send("decompose", {"task": {}})


def test_importing_the_pipeline_loads_no_http_stack():
    # replay never sends, so HttpChannel.send imports urllib.request itself
    src = str(Path(envcover.__file__).resolve().parents[1])
    code = (
        "import sys, envcover.pipeline; "
        "print([m for m in ('urllib.request', 'http.client', 'ssl') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
