"""The typed record reader and writer: shapes, the error contract, rounding."""

from dataclasses import dataclass, field

import pytest

from envcover.errors import SchemaViolation
from envcover.jsonio import as_record, parse_as


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


def test_as_record_rounds_floats_and_writes_tuples_as_lists():
    tree = Tree(leaves=(Leaf("a", 1 / 3, 2),), point=(1, 2.0000004), tags={"k": "v"}, raw=(1 / 3,))
    record = as_record(tree)
    assert record == {
        "leaves": [{"name": "a", "size": 0.333333, "count": 2, "flag": False}],
        "point": [1.0, 2.0],
        "tags": {"k": "v"},
        "raw": (1 / 3,),
    }
    assert parse_as(Tree, {**record, "raw": None}, "tree").point == (1.0, 2.0)
    assert as_record(Tree(leaves=()))["point"] is None
