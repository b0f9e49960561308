"""Every definition in envcover has a reader.

A top-level function or class, or a method, of src/envcover that no code in
src/envcover, bench/ or scripts/ names (as a Name, an Attribute or an import
alias) is dead weight. Dunder methods are called by the language and are
not checked. An oracle that only tests call lives in tests/oracles.py, so
no definition of src is read by the tests alone.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "envcover"
READERS = (SRC, ROOT / "bench", ROOT / "scripts")


def definitions():
    """Dotted names ("module.function", "module.Class.method") of src/envcover."""
    out = {}
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).with_suffix("").as_posix().replace("/", ".")
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            out[f"{module}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        out[f"{module}.{node.name}.{item.name}"] = item.name
    return out


def referenced_names():
    names = set()
    for path in (p for directory in READERS for p in directory.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(n for n in (node.name, node.asname) if n)
    return names


def test_every_definition_in_envcover_is_referenced():
    names = referenced_names()
    unread = {dotted for dotted, name in definitions().items() if name not in names}
    assert unread == set()

