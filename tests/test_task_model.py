import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envcover.errors import MalformedDocument, SchemaViolation, StructureError
from envcover.task_model import (
    BehaviorPlanTree,
    Leaf,
    Query,
    UncertainFactor,
    extract_paths,
    match_factors,
    normalize_text,
    parse_behavior_plan,
    validate_tree_grounding,
)
from oracles import serialize_behavior_plan


def test_normalize_text_strips_case_punctuation_and_whitespace():
    assert normalize_text("  There is a TOY, on the floor?! ") == "there is a toy on the floor"
    assert normalize_text("toy_on_floor") == "toy on floor"
    assert normalize_text("YES!") == "yes"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_living_room_plan(living_room_plan_doc):
    trees = parse_behavior_plan(living_room_plan_doc, ["toy", "book", "stain"])
    assert len(trees) == 3
    assert [len(extract_paths(t)) for t in trees] == [3, 2, 2]
    toy_tree = trees[0]
    assert isinstance(toy_tree.root, Query)
    assert [r for r, _ in toy_tree.root.branches] == ["YES", "NO"]


def test_parse_assigns_default_subtask_ids():
    trees = parse_behavior_plan([{"Is it raining?": {"YES": "stay", "NO": "go"}}])
    assert trees[0].subtask_id == "s1"


def test_parse_accepts_bare_string_entry_as_leaf_tree():
    (tree,) = parse_behavior_plan(["Water the plant."])
    assert tree.root == Leaf("Water the plant.")


def test_parse_rejects_single_branch_query():
    with pytest.raises(StructureError):
        parse_behavior_plan([{"Is it raining?": {"YES": "stay"}}])


def test_parse_rejects_empty_texts():
    with pytest.raises(StructureError):
        parse_behavior_plan([{"": {"YES": "a", "NO": "b"}}])
    with pytest.raises(StructureError):
        parse_behavior_plan([{"q?": {"YES": "", "NO": "b"}}])
    with pytest.raises(StructureError):
        parse_behavior_plan([{"q?": {" ": "a", "NO": "b"}}])


def test_parse_rejects_responses_that_collide_after_normalization():
    with pytest.raises(StructureError):
        parse_behavior_plan([{"q?": {"YES": "a", "yes!": "b"}}])


def test_parse_rejects_duplicate_subtask_ids():
    # two bare-leaf subtasks named alike would share the path id "s/"
    with pytest.raises(StructureError, match="duplicate subtask ids"):
        parse_behavior_plan(["Water the plant.", "Feed the cat."], ["s", "s"])
    trees = parse_behavior_plan(["Water the plant.", "Feed the cat."], ["s", "t"])
    assert [t.subtask_id for t in trees] == ["s", "t"]


def test_parse_rejects_malformed_documents():
    with pytest.raises(MalformedDocument):
        parse_behavior_plan({"not": "a list"})
    with pytest.raises(MalformedDocument):
        parse_behavior_plan([{"two": {"YES": "a", "NO": "b"}, "keys": "x"}])
    with pytest.raises(MalformedDocument):
        parse_behavior_plan([42])
    with pytest.raises(MalformedDocument):
        parse_behavior_plan([{"q?": ["YES", "NO"]}])


def test_serialize_inverts_parse(living_room_plan_doc):
    trees = parse_behavior_plan(living_room_plan_doc)
    assert serialize_behavior_plan(trees) == living_room_plan_doc


# ---------------------------------------------------------------------------
# path extraction
# ---------------------------------------------------------------------------


def test_extract_paths_depth_first_declaration_order(living_room_plan_doc):
    trees = parse_behavior_plan(living_room_plan_doc, ["toy", "book", "stain"])
    paths = extract_paths(trees[0])
    assert [p.leaf_action for p in paths] == [
        "Place the toy in the red box.",
        "Place the toy in the white box.",
        "Do nothing.",
    ]
    assert paths[0].path_id == (
        "toy/there is a toy on the floor=yes;"
        "what is the type of the toy on the floor=doll"
    )
    assert paths[2].path_id == "toy/there is a toy on the floor=no"
    assert [len(p.steps) for p in paths] == [2, 2, 1]


def test_extract_paths_leaf_only_tree():
    tree = BehaviorPlanTree(subtask_id="s1", root=Leaf("Do nothing."))
    (path,) = extract_paths(tree)
    assert path.steps == ()
    assert path.leaf_action == "Do nothing."
    assert path.path_id == "s1/"


def test_extract_paths_depth_three_binary_tree():
    def q(text, a, b):
        return {text: {"YES": a, "NO": b}}

    doc = [q("q1?", q("q2?", q("q3?", "a", "b"), q("q4?", "c", "d")),
             q("q5?", q("q6?", "e", "f"), q("q7?", "g", "h")))]
    (tree,) = parse_behavior_plan(doc)
    paths = extract_paths(tree)
    assert [p.leaf_action for p in paths] == list("abcdefgh")
    assert len({p.path_id for p in paths}) == 8


# property: parse/serialize round-trip over random well-formed trees


def _leaf_strategy():
    return st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters=" "),
        min_size=1,
        max_size=12,
    ).filter(lambda s: s.strip())


def _node_strategy():
    return st.recursive(
        _leaf_strategy(),
        lambda children: st.dictionaries(
            keys=st.text(st.sampled_from("abcdefgh"), min_size=3, max_size=8),
            values=st.dictionaries(
                keys=st.sampled_from(["r1", "r2", "r3", "r4"]),
                values=children,
                min_size=2,
                max_size=4,
            ),
            min_size=1,
            max_size=1,
        ),
        max_leaves=12,
    )


@settings(max_examples=60, deadline=None)
@given(doc=st.lists(_node_strategy(), min_size=1, max_size=4))
def test_parse_serialize_round_trip_property(doc):
    trees = parse_behavior_plan(doc)
    assert serialize_behavior_plan(trees) == doc
    for tree in trees:
        paths = extract_paths(tree)
        assert len({p.path_id for p in paths}) == len(paths)


# ---------------------------------------------------------------------------
# grounding
# ---------------------------------------------------------------------------


TOY_FACTORS = (
    UncertainFactor("toy_on_floor", ("YES", "NO"), aliases=("there is a toy on the floor",)),
    UncertainFactor("toy_type", ("doll", "other types"), aliases=("type of the toy",)),
)


@pytest.mark.parametrize("domain", [(), ("YES",)], ids=["empty", "one_value"])
def test_a_factor_needs_two_domain_values(domain):
    with pytest.raises(SchemaViolation, match="'toy' needs a domain of at least two values"):
        UncertainFactor("toy", domain)


def test_grounding_passes_on_living_room_toy_tree(living_room_plan_doc):
    trees = parse_behavior_plan(living_room_plan_doc, ["toy", "book", "stain"])
    assert validate_tree_grounding(trees[0], TOY_FACTORS) == []


def test_grounding_flags_unmatched_query():
    (tree,) = parse_behavior_plan([{"Is the window open?": {"YES": "a", "NO": "b"}}])
    violations = validate_tree_grounding(tree, TOY_FACTORS)
    assert violations
    assert violations[0].rule == "grounding"
    assert "matches no declared factor" in violations[0].message


def test_grounding_flags_ambiguous_query():
    factors = (
        UncertainFactor("toy", ("YES", "NO")),
        UncertainFactor("floor", ("YES", "NO")),
    )
    (tree,) = parse_behavior_plan([{"There is a toy on the floor?": {"YES": "a", "NO": "b"}}])
    violations = validate_tree_grounding(tree, factors)
    assert any("multiple factors" in v.message for v in violations)


def test_grounding_flags_out_of_domain_response():
    (tree,) = parse_behavior_plan(
        [{"There is a toy on the floor?": {"YES": "a", "MAYBE": "b"}}]
    )
    violations = validate_tree_grounding(tree, TOY_FACTORS[:1])
    assert any("outside domain" in v.message for v in violations)


def test_grounding_compares_responses_after_normalization():
    (tree,) = parse_behavior_plan([{"There is a toy on the floor?": {"yes": "a", "No!": "b"}}])
    assert validate_tree_grounding(tree, TOY_FACTORS[:1]) == []


def test_match_factors_uses_word_boundaries():
    factor = UncertainFactor("cat", ("YES", "NO"))
    assert match_factors("Is there a cat here?", [factor]) == [factor]
    assert match_factors("Is this delicate?", [factor]) == []
