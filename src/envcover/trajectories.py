"""Logical trajectories and minimal covering-set selection.

A logical trajectory picks one decision path per subtask; the full space is
the cartesian product of the per-subtask path sets. Building a scene per
trajectory is expensive, so only a small subset whose paths still cover
every path in the universe is kept. On the full product that subset has a
closed form (cover_path_sets, the "each-choice" test set of combinatorial
testing) and the product itself is never built. The general greedy
(minimal_trajectory_selection) works on any trajectory list and stays as
its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import EmptyPathSet, StructureError
from .task_model import BehaviorPlanTree, DecisionPath, extract_paths


@dataclass(frozen=True)
class LogicalTrajectory:
    """One decision path per subtask, in subtask order."""

    paths: tuple[DecisionPath, ...]

    def __post_init__(self):
        if not self.paths:
            raise EmptyPathSet("a trajectory needs at least one path")

    @property
    def trajectory_id(self) -> str:
        return "|".join(p.path_id for p in self.paths)


def paths_per_subtask(trees: list[BehaviorPlanTree]) -> list[list[DecisionPath]]:
    return [extract_paths(tree) for tree in trees]


def cartesian_trajectories(path_sets) -> list[LogicalTrajectory]:
    """Every combination of one path per subtask, in lexicographic order.

    Lexicographic means the first subtask's path index varies slowest and
    the last subtask's fastest, with path indices in tree declaration order.
    """
    return [LogicalTrajectory(paths=combo) for combo in product(*_nonempty(path_sets))]


def _nonempty(path_sets) -> list[list[DecisionPath]]:
    path_sets = [list(ps) for ps in path_sets]
    if not path_sets:
        raise EmptyPathSet("a trajectory needs at least one subtask")
    for i, ps in enumerate(path_sets):
        if not ps:
            raise EmptyPathSet(f"subtask at position {i} has no decision paths")
    return path_sets


def cover_path_sets(path_sets) -> list[LogicalTrajectory]:
    """A minimum set of trajectories covering every path, in closed form.

    Trajectory k takes path k of each subtask, or its path 0 once k is at or
    past that subtask's size, for k below the largest path-set size. Every
    path appears, and no cover is smaller, since each trajectory holds one
    path of the largest set. With pairwise distinct path ids this equals
    minimal_trajectory_selection(cartesian_trajectories(path_sets)), ids and
    order, without building the product; a shared path id raises
    StructureError, since the greedy would then select differently.
    """
    path_sets = _nonempty(path_sets)
    seen: set[str] = set()
    for ps in path_sets:
        for p in ps:
            if p.path_id in seen:
                raise StructureError(f"path id {p.path_id!r} occurs more than once")
            seen.add(p.path_id)
    return [
        LogicalTrajectory(paths=tuple(ps[k] if k < len(ps) else ps[0] for ps in path_sets))
        for k in range(max(len(ps) for ps in path_sets))
    ]


def split_constraints(trajectory: LogicalTrajectory) -> frozenset[str]:
    """The trajectory's constraint set: the path ids it commits to."""
    return frozenset(p.path_id for p in trajectory.paths)


def minimal_trajectory_selection(trajectories) -> list[LogicalTrajectory]:
    """Greedy covering-subset selection in a single pass plus a cleanup pass.

    Main pass: a trajectory whose constraints are fully disjoint from the
    covered pool is taken immediately; one that is only partially novel is
    parked as a candidate; one contributing nothing is dropped. Cleanup pass:
    each round takes the candidate covering the most still-uncovered
    constraints (first-seen order breaks ties) until no candidate contributes.
    On a full cartesian product this yields exactly max path-set size picks,
    matching the exhaustive oracle's cardinality. Output order is selection
    order, and the result covers exactly the union of the input constraints.
    """
    selected: list[LogicalTrajectory] = []
    pool: set[str] = set()
    candidates: list[tuple[LogicalTrajectory, frozenset[str]]] = []
    for trajectory in trajectories:
        cset = split_constraints(trajectory)
        if pool.isdisjoint(cset):
            selected.append(trajectory)
            pool |= cset
        elif not cset <= pool:
            candidates.append((trajectory, cset))
    while candidates:
        best_idx = -1
        best_gain = 0
        for i, (_, cset) in enumerate(candidates):
            gain = len(cset - pool)
            if gain > best_gain:
                best_idx, best_gain = i, gain
        if best_idx < 0:
            break
        trajectory, cset = candidates.pop(best_idx)
        selected.append(trajectory)
        pool |= cset
        candidates = [(t, c) for t, c in candidates if not c <= pool]
    return selected


def covered_constraints(trajectories) -> set[str]:
    out: set[str] = set()
    for trajectory in trajectories:
        out |= split_constraints(trajectory)
    return out


def jaccard_index(a, b) -> float:
    """|A ∩ B| / |A ∪ B| over trajectory-id sets; 1.0 when both are empty."""
    a, b = set(a), set(b)
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def serialize_trajectory(trajectory: LogicalTrajectory) -> dict:
    return {
        "trajectory_id": trajectory.trajectory_id,
        "paths": [
            {
                "subtask_id": p.subtask_id,
                "steps": [{"query": s.query, "response": s.response} for s in p.steps],
                "leaf_action": p.leaf_action,
            }
            for p in trajectory.paths
        ],
    }
