"""Single edits of the fixture bundle and of a run directory's plan files.

Each edit deletes a key, drops a list element or gives a value the wrong
JSON type. Whatever the edit, the pipeline must end in success or in an
EnvcoverError: a document of the wrong shape is a SchemaViolation that names
its path, never a bare ValueError, TypeError, KeyError or AttributeError.

Every site of task.json, schema.json, action_model.json, plans/subtasks.json
and trajectories/selected.json is edited, and seeded sites of the catalog and
of the cassette's response bodies. A bundle edit that its file's loader
already rejects with an EnvcoverError needs no run, since run_all reads the
file through that loader; every other bundle edit runs run_all at grid 0.2.
"""

import copy
import json
import random
import shutil

import pytest

from envcover import pipeline
from envcover.assets import load_catalog
from envcover.errors import EnvcoverError
from envcover.providers import load_cassette
from envcover.schema import load_schema
from envcover.simulation import load_action_model

GRID = 0.2
SEED = 0
CATALOG_EDITS = 16
CASSETTE_EDITS = 32

LOADERS = {
    "task.json": pipeline.load_task,
    "schema.json": load_schema,
    "action_model.json": load_action_model,
    "catalog.json": load_catalog,
    "cassette.json": load_cassette,
}


def sites(value, path=()):
    """Every position in a JSON document as a key/index tuple, the root first."""
    yield path
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield from sites(child, path + (key,))


def wrong_type(value):
    """A value of another JSON type; a number becomes its numeric string."""
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, str):
        return 7
    if isinstance(value, list):
        return 5
    if isinstance(value, dict):
        return []
    return "x"


def edits_at(path):
    """The edits of one site: removal (not of the root) and a wrong type."""
    return ([(path, "remove")] if path else []) + [(path, "retype")]


def all_edits(doc, root=()):
    """Every edit of every site under root."""
    out = []
    parent = doc
    for key in root:
        parent = parent[key]
    for path in sites(parent, root):
        out += edits_at(path)
    return out


def apply(doc, path, op, value=None):
    """doc with one edit: remove the site, give it a wrong type, or set value."""
    if not path:
        return wrong_type(doc)
    out = copy.deepcopy(doc)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if op == "remove":
        del parent[path[-1]]
    elif op == "retype":
        parent[path[-1]] = wrong_type(parent[path[-1]])
    else:
        parent[path[-1]] = value
    return out


def show(path) -> str:
    text = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
    return text.lstrip(".") or "(root)"


def leak(name, path, op, value, exc) -> str:
    edit = f"set to {value!r}" if op == "set" else op
    return f"{name} {show(path)} ({edit}): {type(exc).__name__}: {exc}"


def response_index(records, kind):
    return next(i for i, r in enumerate(records) if r["request_kind"] == kind)


def bundle_edits(bundle):
    """(file name, path, op, value) for every bundle edit of the sweep."""
    docs = {name: json.loads((bundle / name).read_text()) for name in LOADERS}
    rng = random.Random(SEED)
    out = []
    for name in ("task.json", "schema.json", "action_model.json"):
        out += [(name, path, op, None) for path, op in all_edits(docs[name])]
    catalog = all_edits(docs["catalog.json"])
    out += [("catalog.json", path, op, None) for path, op in rng.sample(catalog, CATALOG_EDITS)]
    records = docs["cassette.json"]["records"]
    responses = []
    for i in range(len(records)):
        responses += all_edits(docs["cassette.json"], ("records", i, "response_body"))
    out += [("cassette.json", path, op, None) for path, op in rng.sample(responses, CASSETTE_EDITS)]
    # catalog and cassette values that ended in a bare exception before, which
    # the seeded sites may miss (every site of the small files is edited)
    rooms = ("records", response_index(records, "design_floor_plan"), "response_body", "rooms")
    objects = ("records", response_index(records, "select_objects"), "response_body")
    out += [
        ("catalog.json", ("assets", 0, "size"), "set", "x"),
        ("catalog.json", ("assets", 1, "id"), "set", 3),
        ("cassette.json", rooms + (0, "x_max"), "set", "6.0"),
        ("cassette.json", rooms + (0, "floor_color"), "set", 2),
        ("cassette.json", objects + (5, "attributes"), "set", ["dirty"]),
        ("cassette.json", objects + (0, "description"), "set", 9),
        ("cassette.json", objects + (10, "attributes"), "set", {"mount_height": "high"}),
    ]
    return docs, out


def test_bundle_edits_end_in_success_or_an_envcover_error(living_room_dir, tmp_path):
    bundle = tmp_path / "bundle"
    shutil.copytree(living_room_dir, bundle)
    docs, edits = bundle_edits(bundle)
    leaks = []
    runs = 0
    for name, path, op, value in edits:
        target = bundle / name
        target.write_text(json.dumps(apply(docs[name], path, op, value)))
        out = tmp_path / "run"
        try:
            LOADERS[name](target)
            runs += 1
            pipeline.run_all(str(out), str(bundle), seed=SEED, grid=GRID)
        except EnvcoverError:
            pass
        except Exception as exc:  # noqa: BLE001 - every other exception is the finding
            leaks.append(leak(name, path, op, value, exc))
        finally:
            target.write_text(json.dumps(docs[name]))
            shutil.rmtree(out, ignore_errors=True)
    assert not leaks, f"{len(leaks)} of {len(edits)} edits leaked:\n" + "\n".join(leaks)
    assert runs <= 250, f"{runs} run_all calls"


# stages that read each run-dir file, in pipeline order
RUN_DIR_STAGES = {
    ("plans", "subtasks.json"): ("collect", "build", "validate", "simulate", "report"),
    ("trajectories", "selected.json"): ("build", "validate", "simulate", "report"),
}


@pytest.fixture(scope="module")
def base_run(living_room_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "base"
    pipeline.run_all(str(out), str(living_room_dir), seed=SEED, grid=GRID)
    return out


@pytest.mark.parametrize("where", RUN_DIR_STAGES, ids=lambda w: w[1])
def test_run_dir_edits_end_in_success_or_an_envcover_error(where, base_run, living_room_dir, tmp_path):
    doc = json.loads(base_run.joinpath(*where).read_text())
    # among them a factor domain of 5 and a path without its leaf_action
    edits = all_edits(doc)
    bundle = pipeline.resolve_bundle(str(living_room_dir))
    stages = {
        "collect": pipeline.stage_collect,
        "build": lambda paths: pipeline.stage_build(paths, bundle, seed=SEED, grid=GRID),
        "validate": lambda paths: pipeline.stage_validate(paths, bundle),
        "simulate": lambda paths: pipeline.stage_simulate(paths, bundle),
        "report": pipeline.stage_report,
    }
    leaks = []
    for path, op in edits:
        run = tmp_path / "run"
        shutil.copytree(base_run, run)
        run.joinpath(*where).write_text(json.dumps(apply(doc, path, op)))
        paths = pipeline.RunPaths(run)
        try:
            for stage in RUN_DIR_STAGES[where]:
                stages[stage](paths)
        except EnvcoverError:
            pass
        except Exception as exc:  # noqa: BLE001 - every other exception is the finding
            leaks.append(leak("/".join(where), path, op, None, exc))
        finally:
            shutil.rmtree(run)
    assert not leaks, f"{len(leaks)} of {len(edits)} edits leaked:\n" + "\n".join(leaks)
