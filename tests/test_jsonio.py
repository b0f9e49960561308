"""The typed record reader and the canonical text writer: shapes, the error
contract, rounding, json_text against json.dumps on plain documents,
json_text on records against the two-pass oracle's plain tree, and
write_text's in-place rewrite of a file."""

import json
import math
import os
import stat
from dataclasses import dataclass, field

import pytest
from hypothesis import given
from hypothesis import strategies as st

from envcover.errors import SchemaViolation
from envcover.jsonio import json_text, parse_as, write_text
from oracles import two_pass_record_text


@dataclass(frozen=True)
class Leaf:
    name: str
    size: float
    count: int = 0
    flag: bool = False

    def __post_init__(self):
        if self.count < 0:
            raise SchemaViolation("count cannot be negative")


@dataclass(frozen=True)
class Tree:
    leaves: tuple[Leaf, ...]
    point: tuple[float, float] | None = None
    tags: dict[str, str] = field(default_factory=dict)
    raw: object = None


def test_reads_a_nested_record_and_fills_defaults():
    doc = {
        "leaves": [{"name": "a", "size": 1}, {"name": "b", "size": 0.5, "count": 2, "flag": True}],
        "point": [0, 1.5],
        "tags": {"k": "v"},
        "raw": {"any": [1, "json"]},
        "unknown": "ignored",
    }
    tree = parse_as(Tree, doc, "tree")
    assert tree.leaves == (Leaf("a", 1.0), Leaf("b", 0.5, 2, True))
    assert type(tree.leaves[0].size) is float
    assert tree.point == (0.0, 1.5)
    assert tree.tags == {"k": "v"}
    assert tree.raw == {"any": [1, "json"]}
    assert parse_as(Tree, {"leaves": []}, "tree") == Tree(leaves=())


@pytest.mark.parametrize(
    "doc, path, problem",
    [
        ([], "", "expected an object"),
        ({}, "leaves", "required key is missing"),
        ({"leaves": {}}, "leaves", "expected a list"),
        ({"leaves": [{"size": 1}]}, "leaves[0].name", "required key is missing"),
        ({"leaves": [{"name": "a", "size": "1.5"}]}, "leaves[0].size", "expected a finite number"),
        ({"leaves": [{"name": "a", "size": True}]}, "leaves[0].size", "expected a finite number"),
        ({"leaves": [{"name": "a", "size": float("nan")}]}, "leaves[0].size", "finite number"),
        ({"leaves": [{"name": "a", "size": 10**400}]}, "leaves[0].size", "finite number"),
        ({"leaves": [{"name": "a", "size": 1, "count": True}]}, "leaves[0].count", "an integer"),
        ({"leaves": [{"name": "a", "size": 1, "count": 1.0}]}, "leaves[0].count", "an integer"),
        ({"leaves": [{"name": "a", "size": 1, "flag": 1}]}, "leaves[0].flag", "true or false"),
        ({"leaves": [{"name": 7, "size": 1}]}, "leaves[0].name", "expected a string, got 7"),
        ({"leaves": [{"name": "a", "size": 1, "count": -1}]}, "leaves[0]", "cannot be negative"),
        ({"leaves": [], "point": [1]}, "point", "a list of 2 values"),
        ({"leaves": [], "point": [1, "x"]}, "point[1]", "finite number"),
        ({"leaves": [], "tags": {"k": 1}}, 'tags["k"]', "a string"),
    ],
)
def test_a_mismatch_is_a_schema_violation_naming_its_path(doc, path, problem):
    with pytest.raises(SchemaViolation, match="malformed tree") as excinfo:
        parse_as(Tree, doc, "tree")
    assert excinfo.value.field == path
    assert problem in str(excinfo.value)


def test_record_text_rounds_floats_and_writes_tuples_as_lists():
    tree = Tree(leaves=(Leaf("a", 1 / 3, 2),), point=(1, 2.0000004), tags={"k": "v"}, raw=(1 / 3,))
    record = json.loads(json_text(tree))
    assert record == {
        "leaves": [{"name": "a", "size": 0.333333, "count": 2, "flag": False}],
        "point": [1.0, 2.0],
        "tags": {"k": "v"},
        "raw": [1 / 3],
    }
    assert parse_as(Tree, {**record, "raw": None}, "tree").point == (1.0, 2.0)
    assert json.loads(json_text(Tree(leaves=())))["point"] is None


# ---------------------------------------------------------------------------
# canonical text
# ---------------------------------------------------------------------------

# text with non-ASCII and control characters, keys included
texts = st.text(st.characters(max_codepoint=0x1FFFF), max_size=6) | st.sampled_from(
    ["", "\x00\x1f\x7f", '"\\/\b\f\n\r\t', "caf\u00e9 \u2603 \U0001f600"]
)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats()
    | st.sampled_from([0.0, -0.0, 1e16, 1e-7, math.nan, math.inf, -math.inf, 2**63, -(2**64)])
    | texts
)
documents = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(texts, inner, max_size=4),
    max_leaves=24,
)


@pytest.mark.parametrize("ordered", [False, True], ids=["sorted", "ordered"])
@given(doc=documents)
def test_json_text_is_indented_json_dumps(ordered, doc):
    assert json_text(doc, ordered) == json.dumps(doc, indent=2, sort_keys=not ordered) + "\n"


@pytest.mark.parametrize(
    "doc",
    [{1: "a"}, {"a": [None, {None: 1}]}, {"a": {1, 2}}, [b"x"], object(), 1j],
    ids=["int_key", "nested_none_key", "set", "bytes", "object", "complex"],
)
def test_json_text_rejects_other_types(doc):
    with pytest.raises(TypeError):
        json_text(doc)


# ---------------------------------------------------------------------------
# records against the two-pass oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Part:
    label: str
    weight: float
    note: str | None = None
    limit: float | None = None


@dataclass(frozen=True)
class Whole:
    name: str
    size: float
    count: int
    flag: bool
    point: tuple[float, float, float]
    pair: tuple[str, float]
    words: tuple[str, ...]
    values: tuple[float, ...]
    corners: tuple[tuple[float, float], ...]
    parts: tuple[Part, ...]
    tags: dict[str, str]
    table: dict[str, dict[str, float]]
    child: Part | None
    raw: object


@dataclass(frozen=True)
class Empty:
    pass


# a float field takes floats that round to -0.0, to a subnormal's 0.0 or to
# themselves, and ints and bools
numbers = (
    st.floats()
    | st.sampled_from([-0.0, -1e-7, -4.9e-7, 5e-7, 1e16, 1e-7, 5e-324, 2.2e-308, 123.4567895])
    | st.integers(-(2**53), 2**53)
    | st.booleans()
)
texts_with_brackets = texts | st.sampled_from(['"[{}]"', "}{][", "\\\""])
parts = st.builds(
    Part,
    label=texts_with_brackets,
    weight=numbers,
    note=st.none() | texts_with_brackets,
    limit=st.none() | numbers,
)
wholes = st.builds(
    Whole,
    name=texts_with_brackets,
    size=numbers,
    count=st.integers(),
    flag=st.booleans(),
    point=st.tuples(numbers, numbers, numbers),
    pair=st.tuples(texts, numbers),
    words=st.lists(texts_with_brackets, max_size=3).map(tuple),
    values=st.lists(numbers, max_size=3).map(tuple),
    corners=st.lists(st.tuples(numbers, numbers), max_size=3).map(tuple),
    parts=st.lists(parts, max_size=3).map(tuple),
    tags=st.dictionaries(texts_with_brackets, texts, max_size=3),
    table=st.dictionaries(texts, st.dictionaries(texts, numbers, max_size=2), max_size=2),
    child=st.none() | parts,
    raw=documents,
)
# records in the plain containers a report wraps them in
wrapped = st.recursive(
    wholes | parts | st.builds(Empty) | scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(texts, inner, max_size=3),
    max_leaves=6,
)


@pytest.mark.parametrize("ordered", [False, True], ids=["sorted", "ordered"])
@given(part=wholes)
def test_record_text_equals_the_two_pass_text(ordered, part):
    assert json_text(part, ordered) == two_pass_record_text(part, ordered)


@pytest.mark.parametrize("ordered", [False, True], ids=["sorted", "ordered"])
@given(doc=wrapped)
def test_record_text_writes_records_inside_plain_containers(ordered, doc):
    assert json_text(doc, ordered) == two_pass_record_text(doc, ordered)


def test_a_rewrite_that_shrinks_a_file_leaves_exactly_the_new_bytes(tmp_path):
    path = tmp_path / "doc.json"
    write_text(path, "a longer first text\n")
    write_text(path, "short\n")
    assert path.read_bytes() == b"short\n"
    write_text(path, "é\n")
    assert path.read_bytes() == "é\n".encode("utf-8")
    write_text(path, "")
    assert path.read_bytes() == b""


def test_a_rewrite_keeps_the_inode_and_the_permission_bits(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("old text\n")
    path.chmod(0o640)
    inode = path.stat().st_ino
    write_text(path, "new\n")
    assert path.stat().st_ino == inode
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert path.read_text() == "new\n"


def test_a_hard_link_sees_the_new_bytes(tmp_path):
    path, link = tmp_path / "doc.json", tmp_path / "link.json"
    path.write_text("old text\n")
    os.link(path, link)
    write_text(path, "new\n")
    assert link.read_text() == "new\n"


def test_a_symlinked_path_is_written_through_to_its_target(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("old text\n")
    link.symlink_to(target)
    write_text(link, "new\n")
    assert link.is_symlink()
    assert target.read_text() == "new\n"


def test_a_dangling_symlink_creates_its_target(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    link.symlink_to(target)
    write_text(link, "new\n")
    assert link.is_symlink()
    assert target.read_text() == "new\n"


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
def test_a_new_file_gets_0o666_less_the_umask(umask, tmp_path):
    path = tmp_path / "doc.json"
    old = os.umask(umask)
    try:
        write_text(path, "new\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
