import pytest

from envcover.errors import SchemaMismatch
from envcover.metrics import (
    CoverageStat,
    atomic_conditions,
    atomic_universe,
    logic_coverage,
    logic_coverage_atomic,
    path_universe,
    selection_jaccard,
    share,
)
from envcover.task_model import (
    DecisionPath,
    SubtaskSpec,
    UncertainFactor,
    parse_behavior_plan,
)
from envcover.trajectories import (
    LogicalTrajectory,
    cartesian_trajectories,
    covered_constraints,
    paths_per_subtask,
)


def small_trees():
    docs = [
        {"is the box there?": {"YES": "Open it.", "NO": "Skip it."}},
        {"is the floor wet?": {"YES": "Mop it.", "NO": "Move on."}},
    ]
    return parse_behavior_plan(docs, ["box", "floor"])


def small_subtasks():
    return [
        SubtaskSpec(
            id="box",
            summary="box",
            factors=(UncertainFactor("box", ("YES", "NO"), ()),),
        ),
        SubtaskSpec(
            id="floor",
            summary="floor",
            factors=(UncertainFactor("floor", ("YES", "NO"), ()),),
        ),
    ]


def test_path_universe_counts_each_leaf():
    assert len(path_universe(small_trees())) == 4


def test_full_cartesian_product_covers_everything():
    trees = small_trees()
    universe = cartesian_trajectories(paths_per_subtask(trees))
    stat = logic_coverage(trees, universe)
    assert (stat.covered, stat.universe) == (4, 4)
    assert stat.ratio == 1.0


def test_single_trajectory_covers_one_path_per_subtask():
    trees = small_trees()
    universe = cartesian_trajectories(paths_per_subtask(trees))
    stat = logic_coverage(trees, universe[:1])
    assert (stat.covered, stat.universe) == (2, 4)
    assert stat.ratio == 0.5


def test_covered_paths_ignores_ids_outside_the_universe():
    trees = small_trees()
    stray = DecisionPath(
        subtask_id="elsewhere", steps=(), leaf_action="Wave.", path_id="elsewhere/"
    )
    foreign = LogicalTrajectory(paths=(stray,))
    assert logic_coverage(trees, [foreign]).covered == 0


def test_atomic_universe_enumerates_factor_values():
    assert atomic_universe(small_subtasks()) == {
        ("box", "box", "yes"),
        ("box", "box", "no"),
        ("floor", "floor", "yes"),
        ("floor", "floor", "no"),
    }


def test_atomic_conditions_reads_the_trajectory_steps():
    trees = small_trees()
    first = cartesian_trajectories(paths_per_subtask(trees))[0]
    got = atomic_conditions(first, small_subtasks())
    assert got == {("box", "box", "yes"), ("floor", "floor", "yes")}


def test_atomic_conditions_rejects_unknown_subtasks():
    trees = small_trees()
    first = cartesian_trajectories(paths_per_subtask(trees))[0]
    with pytest.raises(SchemaMismatch):
        atomic_conditions(first, small_subtasks()[:1])


def test_ambiguous_query_grounding_is_rejected():
    subtasks = [
        SubtaskSpec(
            id="box",
            summary="box",
            factors=(
                UncertainFactor("box", ("YES", "NO"), ()),
                UncertainFactor("box lid", ("YES", "NO"), ()),
            ),
        )
    ]
    docs = [{"is the box lid shut?": {"YES": "Open it.", "NO": "Skip it."}}]
    trees = parse_behavior_plan(docs, ["box"])
    trajectory = cartesian_trajectories(paths_per_subtask(trees))[0]
    with pytest.raises(SchemaMismatch, match="2 factors"):
        atomic_conditions(trajectory, subtasks)


def test_ungrounded_query_is_rejected():
    docs = [{"is the weather nice?": {"YES": "Open it.", "NO": "Skip it."}}]
    trees = parse_behavior_plan(docs, ["box"])
    trajectory = cartesian_trajectories(paths_per_subtask(trees))[0]
    with pytest.raises(SchemaMismatch, match="0 factors"):
        atomic_conditions(trajectory, small_subtasks()[:1])


def test_selection_jaccard_full_and_partial():
    trees = small_trees()
    universe = cartesian_trajectories(paths_per_subtask(trees))
    assert selection_jaccard(trees, universe) == 1.0
    # one trajectory realizes 2 of the 4 paths: intersection 2, union 4
    assert selection_jaccard(trees, universe[:1]) == pytest.approx(0.5)


@pytest.mark.parametrize(
    "flags, rate",
    [
        # validity flags
        ([True, True, False, False], 0.5),
        ([True], 1.0),
        ([], 1.0),
        # physics: a clean scene and one whose plant floats
        ([True, False], 0.5),
        # three faulty policies, each detected; then a fourth that never fails
        ([True, True, True], 1.0),
        ([True, True, True, False], 0.75),
    ],
    ids=["validity", "one_valid", "none", "physics", "all_detected", "one_undetected"],
)
def test_share(flags, rate):
    assert share(flags) == rate


def test_coverage_stat_empty_universe_counts_as_full():
    assert CoverageStat(covered=0, universe=0).ratio == 1.0


# ---------------------------------------------------------------------------
# fixture bundle cross-checks
# ---------------------------------------------------------------------------


def test_bundle_selection_keeps_full_path_coverage(derived, selected_trajectories):
    _, selected = selected_trajectories
    stat = logic_coverage(derived.trees, selected)
    assert (stat.covered, stat.universe) == (7, 7)
    assert selection_jaccard(derived.trees, selected) == 1.0


def test_bundle_atomic_coverage_is_complete(derived, selected_trajectories):
    _, selected = selected_trajectories
    assert len(atomic_universe(derived.subtasks)) == 8
    stat = logic_coverage_atomic(derived.subtasks, selected)
    assert (stat.covered, stat.universe) == (8, 8)


def test_dropping_the_doll_trajectory_loses_exactly_one_path(derived, selected_trajectories):
    _, selected = selected_trajectories
    remaining = [t for t in selected if "doll" not in t.trajectory_id]
    assert len(remaining) == len(selected) - 1
    stat = logic_coverage(derived.trees, remaining)
    assert (stat.covered, stat.universe) == (6, 7)
    missing = path_universe(derived.trees) - covered_constraints(remaining)
    assert len(missing) == 1 and "doll" in next(iter(missing))
