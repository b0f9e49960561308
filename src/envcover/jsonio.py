"""The one JSON reader and the one JSON writer of the package.

Every JSON file of a task bundle or a run directory is read by read_json and
written by write_json, environment documents aside (environment.py owns their
canonical text). So a missing or corrupt file fails the same way wherever it
is read: a file that cannot be read is a ConfigError and text that is not
JSON is a SchemaViolation (the CLI exits 2 on both).
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ConfigError, SchemaViolation


def read_json(path, what: str):
    """The JSON document at path; ``what`` names it in the error."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:
        raise SchemaViolation(f"{what} {path} is not valid JSON: {exc}") from exc


def write_json(path, doc, ordered: bool = False) -> None:
    """doc as indented JSON plus a newline, keys sorted unless ``ordered``.

    ``ordered`` keeps dict insertion order where it means something: the
    branch maps of a plan document fix path enumeration order, and so which
    trajectories cover_path_sets selects, and a cassette must hand back
    exactly the responses it recorded.
    """
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=not ordered) + "\n", encoding="utf-8")
