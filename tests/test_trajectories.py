import collections
import itertools
import json
import math
import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import envcover.trajectories as tj
from envcover import task_model
from envcover.errors import EmptyPathSet, StructureError
from envcover.jsonio import parse_as
from envcover.metrics import logic_coverage_atomic
from envcover.pipeline import RunPaths, stage_collect
from envcover.task_model import DecisionPath, QueryResponse, SubtaskSpec, parse_behavior_plan
from envcover.trajectories import (
    LogicalTrajectory,
    cartesian_trajectories,
    cover_path_sets,
    covered_constraints,
    jaccard_index,
    minimal_trajectory_selection,
    paths_per_subtask,
    split_constraints,
)
from oracles import InstanceTooLarge, exhaustive_min_cover


def synthetic_path_sets(sizes):
    """One path set per subtask with the given path counts."""
    sets = []
    for si, n in enumerate(sizes):
        sid = f"s{si}"
        sets.append(
            [
                DecisionPath(
                    subtask_id=sid,
                    steps=(QueryResponse(query=f"choice for {sid}", response=str(i)),),
                    leaf_action="act",
                )
                for i in range(n)
            ]
        )
    return sets


def indices_of(selected, full):
    by_id = {t.trajectory_id: i for i, t in enumerate(full)}
    return [by_id[t.trajectory_id] for t in selected]


# ---------------------------------------------------------------------------
# cartesian enumeration
# ---------------------------------------------------------------------------


def test_cartesian_sizes_322_yields_12_in_lexicographic_order():
    sets = synthetic_path_sets([3, 2, 2])
    out = cartesian_trajectories(sets)
    assert len(out) == 12
    assert out[0].paths == (sets[0][0], sets[1][0], sets[2][0])
    assert out[1].paths == (sets[0][0], sets[1][0], sets[2][1])
    assert out[-1].paths == (sets[0][2], sets[1][1], sets[2][1])


def test_cartesian_sizes_2222_yields_16():
    out = cartesian_trajectories(synthetic_path_sets([2, 2, 2, 2]))
    assert len(out) == 16


def test_cartesian_single_subtask():
    out = cartesian_trajectories(synthetic_path_sets([5]))
    assert len(out) == 5
    assert all(len(t.paths) == 1 for t in out)


def test_cartesian_rejects_empty_path_set():
    with pytest.raises(EmptyPathSet):
        cartesian_trajectories(synthetic_path_sets([3, 0, 2]))


def test_trajectory_needs_at_least_one_path():
    with pytest.raises(EmptyPathSet):
        LogicalTrajectory(paths=())


def test_split_constraints_is_the_path_id_set():
    sets = synthetic_path_sets([2, 2])
    t = cartesian_trajectories(sets)[0]
    assert split_constraints(t) == {sets[0][0].path_id, sets[1][0].path_id}


def test_living_room_plan_induces_12_trajectories(living_room_plan_doc):
    trees = parse_behavior_plan(living_room_plan_doc, ["toy", "book", "stain"])
    out = cartesian_trajectories(paths_per_subtask(trees))
    assert len(out) == 12
    assert len(covered_constraints(out)) == 7
    cover = cover_path_sets(paths_per_subtask(trees))
    assert indices_of(cover, out) == [0, 7, 8]
    assert covered_constraints(cover) == covered_constraints(out)


# ---------------------------------------------------------------------------
# greedy selection
# ---------------------------------------------------------------------------


def test_selection_sizes_322_takes_rows_1_8_9():
    # Hand trace: row 1 and row 8 are disjoint main-loop picks; after them the
    # pool holds both paths of the two binary subtasks plus two of the three
    # first-subtask paths, so only row 9 (first with the third path) survives
    # the candidate pass.
    sets = synthetic_path_sets([3, 2, 2])
    full = cartesian_trajectories(sets)
    selected = minimal_trajectory_selection(full)
    assert indices_of(selected, full) == [0, 7, 8]
    assert covered_constraints(selected) == covered_constraints(full)
    # the closed form picks the same rows: (0, 0, 0), (1, 1, 1), (2, 0, 0)
    assert indices_of(cover_path_sets(sets), full) == [0, 7, 8]


def test_selection_reproduces_three_disjoint_plus_one_candidate_on_4x3():
    # A 12-trajectory instance over two subtasks with 4 and 3 paths: the main
    # loop takes three pairwise-disjoint trajectories and the candidate pass
    # adds exactly one more for the remaining fourth path.
    full = cartesian_trajectories(synthetic_path_sets([4, 3]))
    selected = minimal_trajectory_selection(full)
    assert indices_of(selected, full) == [0, 4, 8, 9]
    first_three = [split_constraints(t) for t in selected[:3]]
    assert first_three[0].isdisjoint(first_three[1])
    assert (first_three[0] | first_three[1]).isdisjoint(first_three[2])
    assert covered_constraints(selected) == covered_constraints(full)
    assert len(exhaustive_min_cover(full)) == 4


def test_selection_single_subtask_keeps_every_path():
    full = cartesian_trajectories(synthetic_path_sets([4]))
    selected = minimal_trajectory_selection(full)
    assert indices_of(selected, full) == [0, 1, 2, 3]


def test_selection_drops_zero_novelty_trajectories():
    full = cartesian_trajectories(synthetic_path_sets([2, 2]))
    doubled = list(full) + list(full)
    selected = minimal_trajectory_selection(doubled)
    assert len(selected) == len(minimal_trajectory_selection(full))


def test_selection_is_deterministic():
    full = cartesian_trajectories(synthetic_path_sets([3, 3, 2]))
    a = [t.trajectory_id for t in minimal_trajectory_selection(full)]
    b = [t.trajectory_id for t in minimal_trajectory_selection(full)]
    assert a == b


def test_selection_calls_split_once_per_trajectory(monkeypatch):
    full = cartesian_trajectories(synthetic_path_sets([3, 2, 2]))
    calls = {"n": 0}
    real = tj.split_constraints

    def counting(t):
        calls["n"] += 1
        return real(t)

    monkeypatch.setattr(tj, "split_constraints", counting)
    tj.minimal_trajectory_selection(full)
    assert calls["n"] == len(full)


# ---------------------------------------------------------------------------
# closed-form cover
# ---------------------------------------------------------------------------


def ids(trajectories):
    return [t.trajectory_id for t in trajectories]


def test_cover_equals_the_greedy_on_every_small_size_tuple():
    # all 780 tuples of 1-4 subtasks with 1-5 paths each
    checked = 0
    for n in range(1, 5):
        for sizes in itertools.product(range(1, 6), repeat=n):
            sets = synthetic_path_sets(sizes)
            expected = minimal_trajectory_selection(cartesian_trajectories(sets))
            assert ids(cover_path_sets(sets)) == ids(expected), sizes
            checked += 1
    assert checked == 780


def test_cover_rejects_empty_path_sets():
    with pytest.raises(EmptyPathSet):
        cover_path_sets(synthetic_path_sets([3, 0, 2]))
    with pytest.raises(EmptyPathSet):
        cover_path_sets([])


def test_cover_rejects_a_shared_path_id():
    # two bare-leaf subtasks under one id both have the path id "s/"
    water = DecisionPath(subtask_id="s", steps=(), leaf_action="Water the plant.")
    feed = DecisionPath(subtask_id="s", steps=(), leaf_action="Feed the cat.")
    with pytest.raises(StructureError, match="more than once"):
        cover_path_sets([[water], [feed]])
    sets = synthetic_path_sets([2, 3])
    with pytest.raises(StructureError, match="more than once"):
        cover_path_sets([sets[0], sets[1], sets[0]])


@st.composite
def plan_docs(draw):
    """Plans of bare leaves, one-query trees and trees nesting a second query."""
    doc = []
    for i in range(draw(st.integers(min_value=1, max_value=6))):
        shape = draw(st.sampled_from(["leaf", "flat", "nested"]))
        if shape == "leaf":
            doc.append(f"Do chore {i}.")
            continue
        width = draw(st.integers(min_value=2, max_value=4))
        branches = {f"value {j}": f"Act {i} {j}." for j in range(width)}
        if shape == "nested":
            under = draw(st.integers(min_value=0, max_value=width - 1))
            inner = draw(st.integers(min_value=2, max_value=3))
            branches[f"value {under}"] = {
                f"What kind is item {i}?": {f"kind {k}": f"Act {i} {under} {k}." for k in range(inner)}
            }
        doc.append({f"What state is item {i} in?": branches})
    return doc


@settings(max_examples=60)
@given(doc=plan_docs())
def test_cover_equals_the_greedy_on_parsed_plans_property(doc):
    path_sets = paths_per_subtask(parse_behavior_plan(doc))
    assume(math.prod(len(ps) for ps in path_sets) <= 2000)
    expected = minimal_trajectory_selection(cartesian_trajectories(path_sets))
    assert ids(cover_path_sets(path_sets)) == ids(expected)


def test_collect_keeps_memory_bounded_on_a_huge_product(tmp_path):
    # 12 subtasks of 6 paths: 6**12 (about 2.2e9) trajectories, 6 selected
    plan = [
        {f"What state is item {i} in?": {f"value {j}": f"Act {i} {j}." for j in range(6)}}
        for i in range(12)
    ]
    subtasks = [{"id": f"st{i}", "summary": f"item {i}", "factors": []} for i in range(12)]
    paths = RunPaths(tmp_path / "run")
    paths.ensure()
    (paths.plans / "plan_document.json").write_text(json.dumps(plan))
    (paths.plans / "subtasks.json").write_text(json.dumps(subtasks))

    tracemalloc.start()
    try:
        selected = stage_collect(paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"
    assert len(selected) == 6
    assert len(covered_constraints(selected)) == 72
    universe = json.loads((paths.trajectories / "universe.json").read_text())
    assert universe == {"count": 6**12}


def seeded_plan(rng, sizes):
    """A plan document and subtask list whose trees yield ``sizes`` paths; a
    seeded share of the trees nests a kind query under one of two states."""
    plan, subtasks = [], []
    for i, n in enumerate(sizes):
        thing = f"item {i}"
        if rng.random() < 0.5:
            states, kinds = ["clean", "dirty"], [f"kind {j}" for j in range(n - 1)]
            branches = {s: f"Leave the {s} {thing}." for s in states}
            branches[rng.choice(states)] = {
                f"What is the kind of the {thing}?": {k: f"Store the {thing} as {k}." for k in kinds}
            }
            factors = [
                {"name": f"state of the {thing}", "domain": states},
                {"name": f"kind of the {thing}", "domain": kinds},
            ]
        else:
            states = [f"state {j}" for j in range(n)]
            branches = {s: f"Handle the {thing} in {s}." for s in states}
            factors = [{"name": f"state of the {thing}", "domain": states}]
        plan.append({f"What is the state of the {thing}?": branches})
        subtasks.append({"id": f"st{i}", "summary": f"Tidy the {thing}.", "factors": factors})
    return plan, subtasks


def test_collect_normalizes_each_text_once(tmp_path, monkeypatch):
    # a work counter, not a timer: collecting this plan and its atomic
    # coverage ask normalize_text 855 times for 40 distinct texts
    plan, subtasks = seeded_plan(random.Random(7), (8, 8, 7, 6, 5, 4, 3))
    paths = RunPaths(tmp_path / "run")
    paths.ensure()
    (paths.plans / "plan_document.json").write_text(json.dumps(plan))
    (paths.plans / "subtasks.json").write_text(json.dumps(subtasks))

    substituted = collections.Counter()
    punct = task_model._PUNCT

    class CountingPattern:
        def sub(self, repl, text):
            substituted[text] += 1
            return punct.sub(repl, text)

    monkeypatch.setattr(task_model, "_PUNCT", CountingPattern())
    task_model.normalize_text.cache_clear()
    selected = stage_collect(paths)
    specs = parse_as(tuple[SubtaskSpec, ...], subtasks, "subtask list")
    assert logic_coverage_atomic(specs, selected).ratio == 1.0

    info = task_model.normalize_text.cache_info()
    assert max(substituted.values()) == 1
    assert info.misses == len(substituted)
    assert info.hits > 10 * info.misses


# ---------------------------------------------------------------------------
# exhaustive oracle
# ---------------------------------------------------------------------------


def test_exhaustive_sizes_322_finds_cover_of_3():
    full = cartesian_trajectories(synthetic_path_sets([3, 2, 2]))
    cover = exhaustive_min_cover(full)
    assert len(cover) == 3
    assert covered_constraints(cover) == covered_constraints(full)
    # lexicographically smallest covering index set, traced by hand
    assert indices_of(cover, full) == [0, 4, 11]


def test_exhaustive_sizes_22_finds_cover_of_2():
    full = cartesian_trajectories(synthetic_path_sets([2, 2]))
    cover = exhaustive_min_cover(full)
    assert len(cover) == 2


def test_exhaustive_singleton():
    full = cartesian_trajectories(synthetic_path_sets([1]))
    assert len(exhaustive_min_cover(full)) == 1


def test_exhaustive_prefers_earliest_index_on_ties():
    sets = synthetic_path_sets([2])
    both = LogicalTrajectory(paths=(sets[0][0], ))
    # two identical singleton covers: the earlier index must win
    t0 = LogicalTrajectory(paths=(sets[0][0],))
    t1 = LogicalTrajectory(paths=(sets[0][0],))
    cover = exhaustive_min_cover([t0, t1])
    assert cover[0] is t0 and len(cover) == 1
    del both


def test_exhaustive_empty_input():
    assert exhaustive_min_cover([]) == []


def test_exhaustive_refuses_oversized_instances():
    full = cartesian_trajectories(synthetic_path_sets([3, 7]))
    assert len(full) == 21
    with pytest.raises(InstanceTooLarge):
        exhaustive_min_cover(full)
    assert len(exhaustive_min_cover(full, max_size=21)) == 7


# ---------------------------------------------------------------------------
# jaccard
# ---------------------------------------------------------------------------


def test_jaccard_both_empty_is_one():
    assert jaccard_index(set(), set()) == 1.0


def test_jaccard_disjoint_is_zero():
    assert jaccard_index({"a"}, {"b"}) == 0.0


def test_jaccard_partial_overlap():
    assert jaccard_index({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)


def test_jaccard_identical_sets():
    assert jaccard_index({"a", "b"}, {"a", "b"}) == 1.0


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

sizes_strategy = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4)


@settings(max_examples=80, deadline=None)
@given(sizes=sizes_strategy)
def test_selection_preserves_coverage_property(sizes):
    full = cartesian_trajectories(synthetic_path_sets(sizes))
    selected = minimal_trajectory_selection(full)
    assert covered_constraints(selected) == covered_constraints(full)


@settings(max_examples=60, deadline=None)
@given(sizes=sizes_strategy)
def test_selection_close_to_exhaustive_property(sizes):
    full = cartesian_trajectories(synthetic_path_sets(sizes))
    if len(full) > 20:
        return
    greedy = minimal_trajectory_selection(full)
    oracle = exhaustive_min_cover(full)
    assert len(oracle) <= len(greedy) <= len(oracle) + 2


@settings(max_examples=40, deadline=None)
@given(sizes=sizes_strategy, seed=st.integers(min_value=0, max_value=999))
def test_selection_covers_arbitrary_subsets_property(sizes, seed):
    """Coverage preservation must hold for non-product inputs too."""
    import random

    full = cartesian_trajectories(synthetic_path_sets(sizes))
    rng = random.Random(seed)
    subset = [t for t in full if rng.random() < 0.6]
    if not subset:
        return
    selected = minimal_trajectory_selection(subset)
    assert covered_constraints(selected) == covered_constraints(subset)
