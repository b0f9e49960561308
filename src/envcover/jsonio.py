"""The one JSON reader and writer of the package, for files and for records.

Every JSON document of the package, the provider's wire formats aside, is
read from text by parse_json and written to text by json_text; read_json and
write_json do both for files, and environment.py decides what goes into an
environment document. A file that cannot be read or written is a
ConfigError, and text that is not UTF-8 or not JSON is a SchemaViolation
(the CLI exits 2 on both).

write_text is the one function of the package that writes a file. It
rewrites an existing file in place and never truncates it to zero first:
ext4's auto_da_alloc starts writing back a file truncated to zero when it
is closed, and a stage rerun into the same run directory overwrites every
artifact. The bytes, the inode, the permission bits, hard links and a
symlink's target are what a truncating write leaves. A crash between the
write and the final truncate leaves the new text followed by the old tail,
where a truncating write leaves an empty or short file; neither parses,
and no write is synced to disk.

json_text is the one canonical text: json.dumps(doc, indent=2, sort_keys=not
ordered) plus a newline, byte for byte, built in one pass. json.dumps takes
its pure-Python path whenever indent is set. A dataclass record in doc is
written by its fields' declared types, as parse_as reads them: one key per
field, float-typed values rounded by _round and object-typed ones as they are.

parse_as reads a parsed document as a typed value, driven by the annotated
types: str, int, float, bool, tuple[T, ...], fixed tuples, dict[str, T],
X | None, object (any JSON value, kept as it is) and dataclasses, whose
records have one key per field. A field with a default may be left out and
unknown keys are ignored. A float takes a finite JSON number and an int a
JSON integer, never a bool or a numeric string. A value of the wrong shape,
or one a dataclass's __post_init__ rejects with a SchemaViolation, is a
SchemaViolation that names its JSON path, such as ``rooms[0].x_min``.
"""

from __future__ import annotations

import functools
import json
import math
import os
import typing
from dataclasses import MISSING, fields, is_dataclass
from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path

from .errors import ConfigError, SchemaViolation


def read_text(path, what: str) -> str:
    """The UTF-8 text of the file at path; ``what`` names it in the error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaViolation(f"{what} {path} is not UTF-8 text: {exc}") from exc


def parse_json(text: str, what: str):
    """The JSON document text holds; ``what`` names it in the error."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise SchemaViolation(f"{what} is not valid JSON: {exc}") from exc


def read_json(path, what: str):
    """The JSON document at path; ``what`` names it in the error."""
    return parse_json(read_text(path, what), f"{what} {path}")


def write_json(path, doc, ordered: bool = False) -> None:
    """doc as indented JSON plus a newline, keys sorted unless ``ordered``.

    ``ordered`` keeps dict insertion order where it means something: the
    branch maps of a plan document fix path enumeration order, and so which
    trajectories cover_path_sets selects, and a cassette must hand back
    exactly the responses it recorded.
    """
    write_text(path, json_text(doc, ordered))


def write_text(path, text: str) -> None:
    """text as the UTF-8 file at path, rewritten in place.

    The file is opened without O_TRUNC and cut to the new length after the
    write, so an existing file never passes through length zero. A new file
    gets 0o666 & ~umask, as open(path, "w") gives it; an existing one keeps
    its inode and permission bits, its hard links see the new bytes, and a
    symlink is written through to its target. See the module docstring for
    the crash window.
    """
    data = text.encode("utf-8")
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
            f.write(data)
            f.truncate()
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def json_text(doc, ordered: bool = False) -> str:
    """json.dumps(doc, indent=2, sort_keys=not ordered) plus a newline.

    doc holds dicts with str keys, lists, tuples, str, int, float, bool,
    None and dataclass records, of exactly those types; any other key or
    value is a TypeError. A record is written by its fields' declared types
    (see the module docstring).
    """
    return _text(doc, "\n", not ordered) + "\n"


def _text(value, newline: str, sort: bool) -> str:
    out: list[str] = []
    _emit(value, newline, sort, out.append)
    return "".join(out)


def _float_text(v: float) -> str:
    if v - v == 0.0:  # finite
        return float.__repr__(v)
    if v != v:
        return "NaN"
    return "Infinity" if v > 0 else "-Infinity"


def _emit(value, newline: str, sort: bool, put) -> None:
    """Put value's text, its nested lines indented from ``newline`` on."""
    t = type(value)
    if t is str:
        put(_escape(value))
    elif t is dict:
        if not value:
            put("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, v in sorted(value.items()) if sort else value.items():
            if type(key) is not str:
                raise TypeError(f"no JSON text for key {key!r}")
            put(sep + _escape(key) + ": ")
            _emit(v, inner, sort, put)
            sep = "," + inner
        put(newline + "}")
    elif t is list or t is tuple:
        if not value:
            put("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for v in value:
            put(sep)
            _emit(v, inner, sort, put)
            sep = "," + inner
        put(newline + "]")
    elif t is float:
        put(_float_text(value))
    elif t is int:
        put(int.__repr__(value))
    elif value is True:
        put("true")
    elif value is False:
        put("false")
    elif value is None:
        put("null")
    elif is_dataclass(t):
        put(_text_writer(t, sort)(value, newline))
    else:
        raise TypeError(f"no JSON text for a {t.__name__}")


def _round(v: float) -> float:
    return round(float(v), 6)


class _Mismatch(Exception):
    """A value of the wrong shape; each enclosing container adds its step."""

    def __init__(self, problem: str, *steps: str):
        super().__init__(problem)
        self.steps = list(steps)  # innermost first


def _wrong(expected: str, value) -> _Mismatch:
    shown = type(value).__name__ if isinstance(value, (list, dict)) else repr(value)[:40]
    return _Mismatch(f"expected {expected}, got {shown}")


@functools.cache
def _record_fields(cls) -> tuple:
    """(name, type, required) of each field of a dataclass."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, hints[f.name], f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
    )


def _optional_of(tp):
    """T for a type T | None."""
    inner, none = typing.get_args(tp)
    if none is not type(None):
        raise TypeError(f"no JSON form for type {tp!r}")
    return inner


def _same(value):
    return value


def _read_float(value):
    if type(value) is float and math.isfinite(value) or type(value) is int and abs(value) < 1e308:
        return float(value)
    raise _wrong("a finite number", value)


_SCALARS = {str: "a string", int: "an integer", bool: "true or false"}


def _read_scalar(kind, value):
    if type(value) is kind:
        return value
    raise _wrong(_SCALARS[kind], value)


@functools.cache
def _reader(tp):
    """The function that reads a JSON value as a tp."""
    if tp in _SCALARS:
        return functools.partial(_read_scalar, tp)
    if tp is float:
        return _read_float
    if tp is object:
        return _same
    if is_dataclass(tp):
        specs = [(name, _reader(t), required) for name, t, required in _record_fields(tp)]
        return lambda value: _read_record(tp, specs, value)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple:
        items = [_reader(t) for t in args if t is not Ellipsis]
        return lambda value: _read_list(items, args[-1] is Ellipsis, value)
    if origin is dict:
        item = _reader(args[1])
        return lambda value: _read_dict(item, value)
    item = _reader(_optional_of(tp))
    return lambda value: None if value is None else item(value)


def _read_list(items, repeated: bool, value):
    if type(value) is not list:
        raise _wrong("a list", value)
    if repeated:
        items = items * len(value)
    elif len(value) != len(items):
        raise _wrong(f"a list of {len(items)} values", value)
    out = []
    for i, v in enumerate(value):
        try:
            out.append(items[i](v))
        except _Mismatch as exc:
            exc.steps.append(f"[{i}]")
            raise
    return tuple(out)


def _read_dict(item, value):
    if type(value) is not dict:
        raise _wrong("an object", value)
    out = {}
    for key, v in value.items():
        try:
            out[key] = item(v)
        except _Mismatch as exc:
            exc.steps.append(f"[{json.dumps(key)}]")
            raise
    return out


def _read_record(cls, specs, value):
    if type(value) is not dict:
        raise _wrong("an object", value)
    kwargs = {}
    for name, item, required in specs:
        if name in value:
            try:
                kwargs[name] = item(value[name])
            except _Mismatch as exc:
                exc.steps.append(f".{name}")
                raise
        elif required:
            raise _Mismatch("required key is missing", f".{name}")
    try:
        return cls(**kwargs)
    except SchemaViolation as exc:
        raise _Mismatch(str(exc)) from None


def parse_as(tp, doc, what: str):
    """doc, a parsed JSON value, as a tp; ``what`` names doc in the error."""
    try:
        return _reader(tp)(doc)
    except _Mismatch as exc:
        path = "".join(reversed(exc.steps)).lstrip(".")
        raise SchemaViolation(f"malformed {what}: {exc}", path) from None


def _bracketed(open_: str, texts: list, newline: str, close: str) -> str:
    inner = newline + "  "
    return open_ + inner + ("," + inner).join(texts) + newline + close if texts else open_ + close


def _rounded_text(value, newline: str) -> str:
    return _float_text(round(float(value), 6))  # _round's expression


@functools.cache
def _text_writer(tp, sort: bool):
    """The function (value, newline) -> text that writes a tp as json_text
    does, its nested lines indented from ``newline`` on."""
    if tp is float:
        return _rounded_text
    if tp is str:
        return lambda value, newline: _escape(value)
    if tp in _SCALARS or tp is object:
        return lambda value, newline: _text(value, newline, sort)
    if is_dataclass(tp):
        fields_ = sorted(_record_fields(tp)) if sort else _record_fields(tp)
        specs = [(name, _escape(name) + ": ", _text_writer(t, sort)) for name, t, _ in fields_]

        def record(value, newline):
            inner = newline + "  "
            texts = [key + write(getattr(value, name), inner) for name, key, write in specs]
            return _bracketed("{", texts, newline, "}")

        return record
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple:
        writers = [_text_writer(t, sort) for t in args if t is not Ellipsis]
        repeated = args[-1] is Ellipsis

        def items(value, newline):
            inner = newline + "  "
            pairs = zip(writers * len(value) if repeated else writers, value)
            return _bracketed("[", [write(v, inner) for write, v in pairs], newline, "]")

        return items
    if origin is dict:
        item = _text_writer(args[1], sort)

        def members(value, newline):
            inner = newline + "  "
            pairs = sorted(value.items()) if sort else value.items()
            return _bracketed("{", [_escape(key) + ": " + item(v, inner) for key, v in pairs], newline, "}")

        return members
    item = _text_writer(_optional_of(tp), sort)
    return lambda value, newline: "null" if value is None else item(value, newline)
