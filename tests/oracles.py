"""Reference implementations that only the tests compare the pipeline
against. Each is written apart from the code it checks, so that the two can
cross-check each other."""

from __future__ import annotations

import hashlib
import math
from itertools import combinations

from envcover.errors import EnvcoverError, SchemaViolation
from envcover.task_model import BehaviorPlanTree, Leaf, Node, normalize_text
from envcover.trajectories import LogicalTrajectory, covered_constraints, split_constraints


class InstanceTooLarge(EnvcoverError):
    """Exhaustive cover asked for more trajectories than its bound allows."""


def exhaustive_min_cover(trajectories, max_size: int = 20) -> list[LogicalTrajectory]:
    """Smallest subset covering the union of constraints, by brute force.

    Checks subsets in increasing size and, within a size, in lexicographic
    index order, so ties resolve to the lexicographically smallest index set.
    O(2^N); refuses inputs above ``max_size``. Kept deliberately independent
    of minimal_trajectory_selection so the two can cross-check each other.
    """
    trajectories = list(trajectories)
    if len(trajectories) > max_size:
        raise InstanceTooLarge(
            f"{len(trajectories)} trajectories exceeds the exhaustive bound of {max_size}"
        )
    universe = covered_constraints(trajectories)
    if not universe:
        return []
    csets = [split_constraints(t) for t in trajectories]
    for size in range(1, len(trajectories) + 1):
        for idxs in combinations(range(len(trajectories)), size):
            union: set[str] = set()
            for i in idxs:
                union |= csets[i]
            if union == universe:
                return [trajectories[i] for i in idxs]
    return trajectories  # unreachable: the full set always covers its own union


def _serialize_node(node: Node):
    if isinstance(node, Leaf):
        return node.action
    return {node.text: {resp: _serialize_node(child) for resp, child in node.branches}}


def serialize_behavior_plan(trees: list[BehaviorPlanTree]) -> list:
    """Inverse of parse_behavior_plan (branch order preserved): the pipeline
    never writes a plan back, and the round-trip tests check the parser
    against this."""
    return [_serialize_node(tree.root) for tree in trees]


def dense_embedding(text: str, dim: int) -> list[float]:
    """The hashed bag-of-words vector filled bucket by bucket and normalized
    over every bucket; embed_text must equal it bit for bit."""
    vec = [0.0] * dim
    for token in normalize_text(text).split():
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        vec[int.from_bytes(digest[:8], "big") % dim] += 1.0
    norm = math.sqrt(sum(v * v for v in vec))
    return vec if norm == 0.0 else [v / norm for v in vec]


def cosine_similarity(a: list[float], b: list[float]) -> float:
    """The cosine of two vectors, from the full dot product and both norms;
    retrieval's scores must equal it bit for bit."""
    if len(a) != len(b):
        raise SchemaViolation(f"vector dimensions differ: {len(a)} vs {len(b)}")
    na = math.sqrt(sum(v * v for v in a))
    nb = math.sqrt(sum(v * v for v in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return sum(x * y for x, y in zip(a, b)) / (na * nb)


def check_assignment(problem, assignment: dict, skip: frozenset = frozenset()) -> bool:
    """Every constraint of a CspProblem outside skip holds under a full
    assignment, by each constraint's own predicate."""
    return all(c.check(assignment) for c in problem.constraints if c.id not in skip)
