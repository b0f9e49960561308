"""Reference implementations that only the tests compare the pipeline
against. Each is written apart from the code it checks, so that the two can
cross-check each other."""

from __future__ import annotations

import hashlib
import math
import dataclasses
import typing
from itertools import combinations

from envcover.environment import SUPPORT_KINDS
from envcover.errors import ConfigError, EnvcoverError, SchemaViolation
from envcover.jsonio import json_text
from envcover.solver import _TOL, MAX_GRID_POINTS
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


def _plain_value(tp, value):
    if tp is float:
        return round(float(value), 6)
    if tp in (str, int, bool, object):
        return value
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is None:
        return plain_record(value)
    if origin is tuple and args[-1] is Ellipsis:
        return [_plain_value(args[0], v) for v in value]
    if origin is tuple:
        return [_plain_value(t, v) for t, v in zip(args, value)]
    if origin is dict:
        return {key: _plain_value(args[1], v) for key, v in value.items()}
    inner, _ = args  # T | None
    return None if value is None else _plain_value(inner, value)


def plain_record(part) -> dict:
    """A dataclass as a tree of plain JSON values, field by field, each value
    converted by its declared type: a float rounded to 6 places, a tuple
    made a list, a nested dataclass a dict, an object-typed value kept."""
    hints = typing.get_type_hints(type(part))
    return {f.name: _plain_value(hints[f.name], getattr(part, f.name)) for f in dataclasses.fields(part)}


def _plain_tree(value):
    if dataclasses.is_dataclass(value):
        return plain_record(value)
    if type(value) in (list, tuple):
        return [_plain_tree(v) for v in value]
    if type(value) is dict:
        return {key: _plain_tree(v) for key, v in value.items()}
    return value


def two_pass_record_text(part, ordered: bool = False) -> str:
    """The text of a record, or of plain values holding records, built as
    the plain tree first, then written by json_text; json_text of the record
    itself, in one walk, must equal it byte for byte."""
    return json_text(_plain_tree(part), ordered)


def walked_grid_points(lo: float, hi: float, res: float) -> list[float]:
    """The grid points of one axis, walked one at a time: lo + k * res for
    k = 0, 1, ... until a point passes hi + _TOL, each rounded to 6 places,
    after the same MAX_GRID_POINTS refusal; solver._grid_points must equal
    it element for element."""
    count = (hi + _TOL - lo) / res
    if count > MAX_GRID_POINTS:
        raise ConfigError(
            f"grid resolution {res} puts {count:.3g} points on one axis, over {MAX_GRID_POINTS}"
        )
    pts = []
    k = 0
    while True:
        v = lo + k * res
        if v > hi + _TOL:
            break
        pts.append(round(v, 6))
        k += 1
    return pts


def emitted_constraints(problem) -> list[tuple]:
    """Each constraint a CspProblem should hold, as (id, kind, scope,
    variables, relaxable, relation_index, keeps_all), by the generic rule:
    a containment per object, then a constraint per relation, then a
    non_collision per pair of objects in one room that no in relation
    joins; a scope's variables are its objects' .pos (near, far,
    center_aligned) or .dir and .pos names, sorted by their index in
    problem.variables; keeps_all says a non_collision pair's y spans, from
    geo.y_span, overlap by at most _TOL, so its pruner keeps every cell.
    Compare with the constraints' fields and `prune is _keep_all`."""
    rank = {vid: i for i, vid in enumerate(problem.variables)}
    geo = problem.geo

    def census(cid, kind, scope, relaxable=False, relation_index=None, keeps_all=False):
        parts = (".pos",) if kind in ("near", "far", "center_aligned") else (".dir", ".pos")
        variables = sorted((e + part for e in scope for part in parts), key=rank.__getitem__)
        return (cid, kind, tuple(scope), tuple(variables), relaxable, relation_index, keeps_all)

    out = [census(f"phys:containment:{o.id}", "room_containment", (o.id,)) for o in problem.objects]
    for idx, rel in enumerate(problem.relations):
        scope = (rel.subject,) if rel.reference is None else (rel.subject, rel.reference)
        relaxable = rel.priority == "enrichment" and rel.kind not in SUPPORT_KINDS
        out.append(census(f"rel[{idx}]:{rel.kind}:{rel.subject}", rel.kind, scope, relaxable, idx))
    in_pairs = {frozenset((r.subject, r.reference)) for r in problem.relations if r.kind == "in"}
    by_room: dict[str, list] = {}
    for o in problem.objects:
        by_room.setdefault(o.room, []).append(o.id)
    for ids in by_room.values():
        for a, b in combinations(ids, 2):
            if frozenset((a, b)) in in_pairs:
                continue
            (a_lo, a_hi), (b_lo, b_hi) = geo.y_span(a), geo.y_span(b)
            keeps_all = min(a_hi, b_hi) - max(a_lo, b_lo) <= _TOL
            out.append(census(f"phys:non_collision:{a}+{b}", "non_collision", (a, b), keeps_all=keeps_all))
    return out
