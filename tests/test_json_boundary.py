"""jsonio is the one module of envcover that turns documents into text and back.

A call of json.loads, json.dumps, json.load or json.dump anywhere else in
src/envcover, or one of those names imported from json, is a second JSON
reader or writer. The provider's wire formats are the named exceptions: the
request hash's compact text (providers.canonical_json) and the HTTP exchange
with a live endpoint (providers.HttpChannel.send).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "envcover"
DOCUMENT_CALLS = {"loads", "dumps", "load", "dump"}
WIRE_FORMATS = {"providers.canonical_json", "providers.HttpChannel.send"}


def json_callers():
    """Dotted names ("module.function", "module.Class.method", or "module" at
    top level) of the scopes outside jsonio that call json on a document."""
    out = set()
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).with_suffix("").as_posix().replace("/", ".")
        if module == "jsonio":
            continue

        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = f"{scope}.{node.name}"
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "json"
                and node.attr in DOCUMENT_CALLS
                or isinstance(node, ast.ImportFrom)
                and node.module == "json"
                and any(alias.name in DOCUMENT_CALLS for alias in node.names)
            ):
                out.add(scope)
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(ast.parse(path.read_text()), module)
    return out


def test_only_jsonio_and_the_wire_formats_call_json():
    # equal, not a subset: the walk must also find the two calls it allows
    assert json_callers() == WIRE_FORMATS
