"""Discrete layout solver for object arrangement.

Encodes a scene draft (rooms, openings, objects, spatial relations) as a
finite CSP: per object one position variable (grid cells in its room) and one
direction variable (four cardinals), plus one position variable per doorway
and window; an exterior doorway's cells avoid every wall its room shares
with another room. Heights are not searched: an object's bottom height
follows from its support relation (none puts it on the floor; on_top_of on
the top face of its reference, in on the bottom of its container,
mounted_on_wall at the mount height), so the support relations are the only
support constraints and are never relaxed. encode first calls
environment.check_references, so duplicate ids and a part that names an
unknown room or object are a SchemaViolation. The physical facts about the
fixed inputs are checked once, at encode time, and raise EncodingError
before any search: first the pre-solve rules of compatibility_conflicts,
which a scene build also asks the provider to revise against (a second
support relation, a support cycle, an object whose top passes the wall
height, an in its container cannot hold, a contact or relative relation
across two rooms), then overlapping rooms, an opening that cannot be
placed, a doorway between detached rooms or an object that fits in no grid
cell. So every constraint left for the search scopes one or two entities.

The search is depth-first backtracking with forward checking (Haralick and
Elliott, 1980). Variable order is largest footprint first (ties by id). The
search state is one int bitmask per variable (bit-parallel domains: Lecoutre
and Vion, Constraint Programming Letters 2, 2008): bit i stands for
problem.domains[vid][i], and a position cell i is (xs[i // nz], zs[i % nz]),
the product(xs, zs) order of the encoded cells. Value order is a seeded
permutation of each domain's indices (value_order), and the search tries a
variable's surviving values in that order, so a fixed seed and config
reproduce the identical solution. Each variable draws its permutation from
its own stream, random.Random(f"{seed}:{vid}"), whose string seed goes
through SHA-512, so the order depends on neither PYTHONHASHSEED nor the
other variables' domains. The draws are lazy: a forward Fisher-Yates step
fixes position k only when the search first reads it, and the config keeps
the drawn prefix, so a revisit, a later relaxation rung or a later scene
solved under the same config replays it. A search that never backtracks
draws a few indices per variable, not one per cell. Exhausting the search
space returns an unsat solution; hitting the backtrack budget, the only cap
on the search, raises SolverTimeout instead, because a capped search proves
nothing. No clock is read, so the outcome does not depend on machine load.

Each constraint is one CspConstraint: its scope's variables in search order
(at least two), its predicate over a full assignment and, for the kinds that
dominate the solver's runtime (containment, non_collision, near, far, edge,
side_of, on_top_of, mounted_on_wall), a pruner. encode appends each object's
.dir and .pos next to each other, in search order, so a scope's variables in
search order are its objects' names with the one searched first leading;
near, far and center_aligned read centers only and take the .pos names.
encode makes each object's names, rank and height span once, so it pays per
object, not per pair, and a pair whose heights do not overlap gets a
non_collision pruner that keeps every cell. Constraints are plain slotted
records: nothing assigns or hashes one. In a static variable order all but a
constraint's last variable are assigned exactly when its second-to-last one
is, so solve plans per rung which constraints forward checking runs after
each assignment; each filters its last variable's domain mask, and a value
that survives satisfies the constraint. A pruner keeps exactly the bits that
setting each value and calling the predicate keeps: it evaluates the same
float expressions. Where the predicate splits into an x test and a z test,
the coordinates that pass each test form one run of the sorted grid
coordinates (or a prefix and a suffix), so the pruner finds the run's ends
by bisection, with a few tests per axis, and builds the mask from bit
ranges. The on_top_of pruner bisects for the rectangle of cells that overlap
the reference at all and tests the support area on each cell inside it. The
near and far pruners call _distance_keep, which keeps the cells within one
closed bound (far keeps the rest of the grid under the float just below its
limit), sweeps the columns outward from the partner, bisects the first
column of each side and walks each later column's run in from the previous
one's. The predicates remain the reference: the tests' brute-force oracles
call them, and so does forward checking, on each set bit, for the kinds
without a pruner.

Before it searches, solve tries to prove the rung unsat from the fixed
inputs alone (_static_core). It tests the height-only parts of above and
mounted_on_wall on the fixed bottom heights, and an in that no pair of grid
cells satisfies, in any directions, is unsat whatever else the rung keeps
(encode decides this once per problem, per axis by bisection:
_in_cells_exist). When the rung keeps a far, it bounds each pair's center
distance from above, by near, on_top_of, in and the extent of the two grids,
closes the bounds under the triangle inequality (path consistency on
distance graphs: Dechter, Meiri and Pearl, AIJ 49, 1991; triangle bound
smoothing: Crippen and Havel, 1988), and compares each far with its pair's
closed bound. The bounds hold in the continuous room, so a rung they rule
out has no grid solution either, and solve returns it unsat with zero stats
and no search.

solve_with_relaxation drops the relaxable constraints one at a time, in
relax_order. An unsat Solution carries pruning, an unsat core: the rung
stays unsat while every id in it is kept. A static proof gives the
constraints its bounds and tests came from; a search gives the ids of the
constraints whose filter removed a value anywhere in the proof, because a
constraint outside them never changed a mask, so the rung that drops it is
the same search tree. A rung that keeps the whole core is not searched, and
the next constraint is dropped at once.

Relation predicates here are written against this module's own box math; the
physics validator re-implements the same semantics table independently.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable

from .environment import (
    DISTANCE_KINDS,
    EXTERIOR,
    ObjectSpec,
    Placement,
    RELATIVE_KINDS,
    Room,
    SUPPORT_KINDS,
    SpatialRelation,
    UNARY_KINDS,
    check_references,
    footprint,
    mount_height,
)
from .errors import ConfigError, CoreUnsat, EncodingError, SolverTimeout
from .semantics import (
    CENTER_ALIGNED_EPS,
    CENTER_MAX,
    DIRECTION_VECTORS,
    EDGE_MAX,
    FAR_MIN,
    FRONT_MAX,
    MOUNT_EPS,
    NEAR_MAX,
    SIDE_LONG_MAX,
    SUPPORT_EPS,
    SUPPORT_OVERLAP_FRAC,
    WALL_HEIGHT,
)

_TOL = 1e-9
# how far an in subject's box may pass its container's on any face
_IN_EPS = SUPPORT_EPS + _TOL

# the most grid points along one axis of a room, far above the ~240 of a 0.025 m grid
MAX_GRID_POINTS = 10_000

# relation predicates that depend on footprint centers alone
_POSITION_ONLY_KINDS = frozenset({"near", "far", "center_aligned"})


@dataclass(frozen=True)
class SolverConfig:
    """The grid step, seed and backtrack budget of a solve, and a store of
    the work that depends only on the seed and the grid step.

    The store holds the grid lists encode has rounded, keyed by (lo, hi),
    and the value orders the search has drawn, keyed by (variable id,
    domain size). Each is a pure function of its key, the seed and the grid
    step, so every problem encoded under one config shares them: the scenes
    of one build replay what earlier scenes rounded and drew. The store
    lives as long as the config and is no part of its init, equality, hash
    or repr; dataclasses.replace starts an empty one. Drawing is not
    locked, so threads that solve at once each need their own config.
    """

    grid_resolution: float = 0.1
    seed: int = 0
    max_backtracks: int = 50000
    _grids: dict[tuple[float, float], list[float]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _orders: dict[tuple[str, int], _ValueOrder] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self):
        # a NaN step never ends a grid walk, and an infinite one makes a NaN cell
        if not (math.isfinite(self.grid_resolution) and self.grid_resolution > 0):
            raise ConfigError(
                f"grid resolution must be finite and positive, got {self.grid_resolution}"
            )


@dataclass(slots=True)
class CspConstraint:
    id: str
    kind: str  # a relation kind, or a physical kind
    scope: tuple[str, ...]  # entity ids, 1 or 2
    variables: tuple[str, ...]  # the scope's variable ids in search order, 2 or more
    check: Callable  # check(assign) -> bool, over a full assignment
    prune: Callable | None = None  # prune(assign, u, mask) -> mask, or None: set and check
    relaxable: bool = False
    relation_index: int | None = None


@dataclass
class Solution:
    status: str  # "sat" | "unsat"
    assignments: dict = field(default_factory=dict)
    placements: list[Placement] = field(default_factory=list)
    door_positions: dict = field(default_factory=dict)
    window_positions: dict = field(default_factory=dict)
    relaxed: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    # unsat only: an unsat core, the rung stays unsat while every id in it is
    # kept (a static proof's constraints, or those whose filter removed a
    # value anywhere in a searched proof)
    pruning: frozenset = frozenset()


# ---------------------------------------------------------------------------
# geometry helpers (solver-side)
# ---------------------------------------------------------------------------


def _grid_points(lo: float, hi: float, res: float) -> list[float]:
    count = (hi + _TOL - lo) / res
    if count > MAX_GRID_POINTS:  # else the list below may fill memory
        raise ConfigError(
            f"grid resolution {res} puts {count:.3g} points on one axis, over {MAX_GRID_POINTS}"
        )
    # the points are lo + k * res for every k with lo + k * res <= hi + _TOL;
    # that test is monotone in k, so it corrects the closed-form count
    n = math.floor(count) + 1 if count >= 0 else 0
    while n and lo + (n - 1) * res > hi + _TOL:
        n -= 1
    while lo + n * res <= hi + _TOL:
        n += 1
    return [round(lo + k * res, 6) for k in range(n)]


def _overlap_1d(a0, a1, b0, b1) -> float:
    return min(a1, b1) - max(a0, b0)


class _Geometry:
    """Per-problem rooms by id, footprints and support heights."""

    def __init__(self, rooms, objects):
        self.rooms = {r.id: r for r in rooms}
        self.objects = {o.id: o for o in objects}
        self.base_y: dict[str, float] = {}
        # each object's position grid: the distinct x and z of its domain
        self.grids: dict[str, _Grid] = {}
        self.footprints: dict[tuple[str, str], tuple[float, float]] = {}
        for o in objects:
            for d in DIRECTION_VECTORS:
                self.footprints[(o.id, d)] = footprint(o.size, d)

    def box(self, obj_id: str, pos, direction: str):
        fx, fz = self.footprints[(obj_id, direction)]
        x, z = pos
        y = self.base_y[obj_id]
        h = self.objects[obj_id].size[1]
        return (x - fx / 2, y, z - fz / 2, x + fx / 2, y + h, z + fz / 2)

    def placed_box(self, obj_id: str, assign):
        return self.box(obj_id, assign[f"{obj_id}.pos"], assign[f"{obj_id}.dir"])

    def half_footprint(self, obj_id: str, assign) -> tuple[float, float]:
        fx, fz = self.footprints[(obj_id, assign[f"{obj_id}.dir"])]
        return fx / 2, fz / 2

    def y_span(self, obj_id: str) -> tuple[float, float]:
        """The box's bottom and top, as box() computes them."""
        y = self.base_y[obj_id]
        return y, y + self.objects[obj_id].size[1]


def _inside_span(lo: float, hi: float, outer_lo: float, outer_hi: float) -> bool:
    """The in predicate along one axis: [lo, hi] lies inside [outer_lo,
    outer_hi] widened by _IN_EPS."""
    return lo >= outer_lo - _IN_EPS and hi <= outer_hi + _IN_EPS


def _conflict(rule: str, indices: list[int], message: str) -> dict:
    return {"rule": rule, "relations": indices, "message": message}


def _support_plan(objects, relations) -> tuple[dict[str, float], list[dict]]:
    """Each object's bottom height, from the support relation naming it, and
    the conflict records one walk over the support chains finds.

    An object with no support relation stands on the floor; on_top_of puts
    it on the reference's top face, in on the container's bottom, and
    mounted_on_wall at its mount height. A subject with more than one
    support relation (one height cannot satisfy two of them) and a chain
    that loops are records; such objects, those resting on them and those
    whose host is unknown get no height. An object whose top passes the
    wall height is a mountability record.
    """
    by_id = {o.id: o for o in objects}
    claims: dict[str, list[int]] = {}
    for i, rel in enumerate(relations):
        if rel.kind in SUPPORT_KINDS:
            claims.setdefault(rel.subject, []).append(i)
    conflicts = [
        _conflict(
            "exclusive_support",
            indices,
            f"object {subject!r} has more than one support relation: "
            + " and ".join(relations[i].kind for i in indices),
        )
        for subject, indices in claims.items()
        if len(indices) > 1
    ]
    base_y: dict[str, float | None] = {}

    def resolve(obj_id: str, trail: tuple[str, ...]) -> float | None:
        if obj_id in base_y:
            return base_y[obj_id]
        if obj_id in trail:
            cycle = trail[trail.index(obj_id) :]
            conflicts.append(
                _conflict(
                    "support_cycle",
                    sorted(claims[o][0] for o in cycle),
                    "support cycle: " + " -> ".join(cycle + (obj_id,)),
                )
            )
            return None
        indices = claims.get(obj_id, [])
        rel = relations[indices[0]] if indices else None
        if rel is None:
            y = 0.0
        elif len(indices) > 1 or rel.reference is not None and rel.reference not in by_id:
            y = None
        elif rel.kind == "mounted_on_wall":
            y = mount_height(by_id[obj_id])
        else:
            y = resolve(rel.reference, trail + (obj_id,))
            if y is not None and rel.kind == "on_top_of":
                y += by_id[rel.reference].size[1]
        if y is not None:
            y = round(y, 6)
            top = y + by_id[obj_id].size[1]
            if top > WALL_HEIGHT + _TOL:
                conflicts.append(
                    _conflict(
                        "mountability",
                        indices,
                        f"object {obj_id!r} would reach {top:g} m, above the {WALL_HEIGHT:g} m walls",
                    )
                )
        base_y[obj_id] = y
        return y

    for o in objects:
        resolve(o.id, ())
    return {o: y for o, y in base_y.items() if y is not None}, conflicts


def _draft_conflicts(objects, relations) -> tuple[list[dict], dict[str, float]]:
    """compatibility_conflicts' records, and the support plan's heights."""
    by_id = {o.id: o for o in objects}
    base_y, conflicts = _support_plan(objects, relations)

    def spans(a: float, b: float) -> bool:  # the in predicate on two centered extents
        return _inside_span(-a / 2, a / 2, -b / 2, b / 2)

    for i, rel in enumerate(relations):
        missing = [e for e in (rel.subject, rel.reference) if e is not None and e not in by_id]
        if missing:
            conflicts.append(
                _conflict("unknown_entity", [i], f"relation {i} names unknown objects {missing}")
            )
            continue
        s, r = by_id[rel.subject], by_id.get(rel.reference)
        # an in subject has a height exactly when in is its only support
        if rel.kind == "in" and s.id in base_y:
            (sx, sy, sz), (rx, ry, rz) = s.size, r.size
            s_lo, r_lo = base_y[s.id], base_y[r.id]
            if not (
                _inside_span(s_lo, s_lo + sy, r_lo, r_lo + ry)
                and (spans(sx, rx) and spans(sz, rz) or spans(sz, rx) and spans(sx, rz))
            ):
                conflicts.append(
                    _conflict(
                        "containment_capacity",
                        [i],
                        f"object {s.id!r} does not fit inside {r.id!r} in either quarter turn",
                    )
                )
        # a contact or relative relation needs one room; near and far may span two
        if r is not None and rel.kind not in DISTANCE_KINDS and s.room != r.room:
            conflicts.append(
                _conflict(
                    "room_consistency",
                    [i],
                    f"{rel.kind} needs {s.id!r} and {r.id!r} in one room, got {s.room!r} and {r.room!r}",
                )
            )
    return conflicts, base_y


def compatibility_conflicts(objects: list[ObjectSpec], relations: list[SpatialRelation]) -> list[dict]:
    """The pre-solve rules a draft breaks, as records {"rule", "relations":
    [indices], "message"}: unknown_entity, exclusive_support, support_cycle
    and mountability (see _support_plan), containment_capacity (the in
    predicate's own tests fail on the support plan's heights or on the two
    footprints in either quarter turn) and room_consistency (a contact or
    relative relation spans two rooms). encode raises on any of them."""
    return _draft_conflicts(objects, relations)[0]


def _shared_wall(a: Room, b: Room):
    """Shared boundary segment of two adjacent rooms, or None.

    Returns ("x", wall_coord, lo, hi) for a wall at constant x, or
    ("z", wall_coord, lo, hi) for a wall at constant z.
    """
    for r1, r2 in ((a, b), (b, a)):
        if abs(r1.x_max - r2.x_min) <= _TOL:
            lo, hi = max(r1.z_min, r2.z_min), min(r1.z_max, r2.z_max)
            if hi - lo > _TOL:
                return ("x", r1.x_max, lo, hi)
        if abs(r1.z_max - r2.z_min) <= _TOL:
            lo, hi = max(r1.x_min, r2.x_min), min(r1.x_max, r2.x_max)
            if hi - lo > _TOL:
                return ("z", r1.z_max, lo, hi)
    return None


def _wall_of(room: Room, orientation: str):
    if orientation == "north":
        return ("z", room.z_max, room.x_min, room.x_max)
    if orientation == "south":
        return ("z", room.z_min, room.x_min, room.x_max)
    if orientation == "east":
        return ("x", room.x_max, room.z_min, room.z_max)
    return ("x", room.x_min, room.z_min, room.z_max)


def _positions_on_wall(wall, width: float, grid_points, shared=()) -> list[tuple[float, float]]:
    """The grid centers of an opening on wall, less those whose span
    overlaps one of the shared walls on wall's line by more than _TOL."""
    axis, coord, lo, hi = wall
    half = width / 2
    centers = grid_points(lo + half, hi - half)
    for s_axis, s_coord, a, b in shared:
        if s_axis == axis and abs(s_coord - coord) <= _TOL:
            centers = [c for c in centers if _overlap_1d(c - half, c + half, a, b) <= _TOL]
    if axis == "x":
        return [(coord, c) for c in centers]
    return [(c, coord) for c in centers]


# ---------------------------------------------------------------------------
# forward-checking pruners
# ---------------------------------------------------------------------------
#
# A pruner filters the domain of a constraint's one unassigned variable u:
# prune(assign, u, mask) returns the set bits of ``mask`` whose cells the
# constraint's predicate keeps. It evaluates the same float expressions as the
# predicate, with the fixed endpoint's box, the moving footprint and the room
# bounds hoisted out, so it keeps exactly what setting u to each value and
# calling the predicate keeps. u is always a position variable: each object's
# direction precedes its position in the search order, and distance relations
# scope positions only.
#
# A separable predicate is a test on x and a test on z, joined by "and" or
# "or". Each test compares a float that is monotone in the coordinate c, such
# as c - h or room.x_max - (c + h): IEEE rounding is monotone, so these are
# monotone in floats too. So along one axis the coordinates that pass form
# one run of the sorted xs or zs, or a prefix and a suffix; _first finds each
# end by bisection, and _Grid turns a run into the bit range of its columns
# or rows. The prune is then mask & X & Z or mask & (X | Z), with a few tests
# per axis and no per-coordinate loop. For non_collision the blocked cells
# are one rectangle of cells, the configuration-space obstacle of the placed
# box (Lozano-Perez, IEEE Trans. Computers 1983). For on_top_of the cells
# whose footprint overlaps the other's at all are one rectangle too; its area
# test couples the axes, so _resting_pruner runs it on each cell inside.


class _Grid(Sequence):
    """An object's position cells, product(xs, zs), as bit positions.

    Cell i is (xs[i // nz], zs[i % nz]), so column k (one x) is the nz bits
    from k * nz on, and row j (one z) is bit j of every column. The grid is
    the object's position domain: a cell is made when it is read, so encode
    materializes no cell list.
    """

    __slots__ = ("xs", "zs", "nz", "comb", "min_half")

    def __init__(self, xs: list[float], zs: list[float]):
        self.xs, self.zs, self.nz = xs, zs, len(zs)
        # bit k * nz for every column k, the geometric series in base 2 ** nz:
        # times a row mask, it repeats the row in every column with no
        # carries, because the row mask is below 1 << nz
        self.comb = ((1 << (len(xs) * self.nz)) - 1) // ((1 << self.nz) - 1)
        # the least half-extent for which _overlap_run is exact (see there)
        self.min_half = 2 * _TOL + 2.0**-50 * max(-xs[0], xs[-1], -zs[0], zs[-1])

    def __len__(self) -> int:
        return len(self.xs) * self.nz

    def __getitem__(self, i: int) -> tuple[float, float]:
        return (self.xs[i // self.nz], self.zs[i % self.nz])

    def column_run(self, a: int, b: int) -> int:
        """The cells of columns a to b - 1; none when b <= a."""
        return ((1 << ((b - a) * self.nz)) - 1) << (a * self.nz) if b > a else 0

    def row_run(self, a: int, b: int) -> int:
        """The cells of rows a to b - 1; none when b <= a."""
        return self.comb * (((1 << (b - a)) - 1) << a) if b > a else 0


def _first(cs: list[float], test: Callable[[float], bool], lo: int = 0) -> int:
    """The first index i >= lo with test(cs[i]) true, or len(cs), by
    bisection: test must be false and then true along cs[lo:]."""
    return bisect_left(cs, True, lo, key=test)


def _filter_bits(mask: int, keep: Callable[[int], bool]) -> int:
    """The set bits i of mask for which keep(i) holds, in one pass."""
    bits = bin(mask)[:1:-1]  # bits[i] is bit i
    flags = bytearray(bits, "ascii")
    i = bits.find("1")
    while i >= 0:
        if not keep(i):
            flags[i] = 48  # "0"
        i = bits.find("1", i + 1)
    return int(flags[::-1], 2)


def _keep_all(assign, u, mask):
    return mask


def _keep_none(assign, u, mask):
    return 0


def _containment_pruner(geo, o: str, room: Room):
    """x - hx >= x_lo and x + hx > x_hi each turn true once along the
    sorted xs, and the columns that pass run from the first turn to the
    second; rows alike."""
    x_lo, x_hi = room.x_min - _TOL, room.x_max + _TOL
    z_lo, z_hi = room.z_min - _TOL, room.z_max + _TOL
    grid = geo.grids[o]
    xs, zs = grid.xs, grid.zs

    def prune(assign, u, mask):
        hx, hz = geo.half_footprint(o, assign)
        return (
            mask
            & grid.column_run(_first(xs, lambda x: x - hx >= x_lo), _first(xs, lambda x: x + hx > x_hi))
            & grid.row_run(_first(zs, lambda z: z - hz >= z_lo), _first(zs, lambda z: z + hz > z_hi))
        )

    return prune


def _edge_pruner(geo, o: str, room: Room, limit: float):
    """The gap to the near wall, x - hx - x_min, rises along xs, so the
    columns within limit of it are a prefix; those within limit of the far
    wall, x_max - (x + hx) falling, a suffix. Rows alike."""
    grid = geo.grids[o]
    xs, zs, nx = grid.xs, grid.zs, len(grid.xs)
    x_min, x_max, z_min, z_max = room.x_min, room.x_max, room.z_min, room.z_max

    def prune(assign, u, mask):
        hx, hz = geo.half_footprint(o, assign)
        return mask & (
            grid.column_run(0, _first(xs, lambda x: x - hx - x_min > limit))
            | grid.column_run(_first(xs, lambda x: x_max - (x + hx) <= limit), nx)
            | grid.row_run(0, _first(zs, lambda z: z - hz - z_min > limit))
            | grid.row_run(_first(zs, lambda z: z_max - (z + hz) <= limit), grid.nz)
        )

    return prune


def _wall_back_pruner(geo, o: str, room: Room, eps: float):
    """The back of o's box lies within eps of the wall it faces away from.

    The back's offset from that wall is monotone along the axis it faces
    on, so |offset| <= eps holds on the run from where the offset passes
    one of -eps and eps to where it passes the other.
    """
    grid = geo.grids[o]
    xs, zs = grid.xs, grid.zs
    x_min, x_max, z_min, z_max = room.x_min, room.x_max, room.z_min, room.z_max

    def prune(assign, u, mask):
        hx, hz = geo.half_footprint(o, assign)
        direction = assign[f"{o}.dir"]
        if direction == "north":
            a = _first(zs, lambda z: z - hz - z_min >= -eps)
            return mask & grid.row_run(a, _first(zs, lambda z: z - hz - z_min > eps, a))
        if direction == "south":
            a = _first(zs, lambda z: z_max - (z + hz) <= eps)
            return mask & grid.row_run(a, _first(zs, lambda z: z_max - (z + hz) < -eps, a))
        if direction == "east":
            a = _first(xs, lambda x: x - hx - x_min >= -eps)
            return mask & grid.column_run(a, _first(xs, lambda x: x - hx - x_min > eps, a))
        a = _first(xs, lambda x: x_max - (x + hx) <= eps)
        return mask & grid.column_run(a, _first(xs, lambda x: x_max - (x + hx) < -eps, a))

    return prune


def _touch_run(cs: list[float], h: float, f0: float, f1: float) -> tuple[int, int]:
    """The run [a, b) of cs outside of which the span [c - h, c + h]
    overlaps [f0, f1] by at most 0, for every h: lo = c - h and hi = c + h
    never fall as c grows, because rounding is monotone, so the run goes
    from the first hi > f0 to the first lo >= f1, found by bisection."""
    a = _first(cs, lambda c: c + h > f0)
    return a, _first(cs, lambda c: c - h >= f1, a)


def _overlap_run(cs: list[float], h: float, f0: float, f1: float) -> tuple[int, int]:
    """The run [a, b) of cs whose span [c - h, c + h] overlaps [f0, f1] by
    more than _TOL, as _overlap_1d computes it; exact for h above the grid's
    min_half.

    Inside _touch_run the overlap is, in order: hi - f0, which never falls;
    then either the moving width hi - lo or the fixed width f1 - f0; then
    f1 - lo, which never rises. The fixed width bounds the first and last
    parts from above, so when it is at most _TOL no cell passes. The moving
    width is above _TOL for every c once h > 2 * _TOL + 2 ** -50 * max|c|:
    c + h and c - h each round by at most 2 ** -53 * (|c| + h), so hi - lo
    >= 2 * _TOL exactly, and its rounding cannot take it down to _TOL. So
    the passing cells are one run, and trimming the touch run's ends with
    the predicate's own expression finds it; only cells that touch the
    fixed span within _TOL are trimmed.
    """
    a, b = _touch_run(cs, h, f0, f1)
    while a < b and _overlap_1d(cs[a] - h, cs[a] + h, f0, f1) <= _TOL:
        a += 1
    while a < b and _overlap_1d(cs[b - 1] - h, cs[b - 1] + h, f0, f1) <= _TOL:
        b -= 1
    return a, b


def _non_collision_pruner(geo, a: str, a_pos: str, b: str):
    """Cells where the moving box's footprint stays off the fixed one's, for
    a pair whose y spans overlap (encode gives any other pair _keep_all).
    a_pos is a's position variable."""

    def prune(assign, u, mask):
        moving, fixed = (a, b) if u == a_pos else (b, a)
        hx, hz = geo.half_footprint(moving, assign)
        f = geo.placed_box(fixed, assign)
        grid = geo.grids[moving]
        xs, zs, nz = grid.xs, grid.zs, grid.nz
        if min(hx, hz) > grid.min_half:
            blocked_x = grid.column_run(*_overlap_run(xs, hx, f[0], f[3]))
            return mask & ~(blocked_x & grid.row_run(*_overlap_run(zs, hz, f[2], f[5])))
        # a footprint thinner than the rounding margin: test every cell
        return _filter_bits(
            mask,
            lambda i: _overlap_1d(xs[i // nz] - hx, xs[i // nz] + hx, f[0], f[3]) <= _TOL
            or _overlap_1d(zs[i % nz] - hz, zs[i % nz] + hz, f[2], f[5]) <= _TOL,
        )

    return prune


def _overlap_spans(cs, h: float, f_lo: float, f_hi: float, extent: float | None) -> list:
    """Per c, (overlap, s's extent) where the span [c - h, c + h] overlaps the
    fixed span [f_lo, f_hi], else None; extent None means the moving span is
    s's own."""
    spans = []
    for c in cs:
        lo, hi = c - h, c + h
        w = _overlap_1d(lo, hi, f_lo, f_hi)
        spans.append((w, hi - lo if extent is None else extent) if w > 0 else None)
    return spans


def _resting_pruner(geo, s: str, r: str, enough):
    """s's footprint overlaps r's, and enough(w, width, d, depth) holds.

    w x d is the overlap and width x depth is s's footprint. The cells that
    overlap at all lie in one touch run per axis; overlap and extent are
    computed over those runs only. The area test couples the axes, so the
    prune walks the masked touch run one column at a time, with that
    column's (w, width) fixed, and calls enough once on each set cell whose
    row overlaps too: a mask that earlier prunes thinned costs less.
    _overlap_1d is symmetric in its two spans, so one pruner serves either
    moving endpoint.
    """
    s_pos = f"{s}.pos"

    def prune(assign, u, mask):
        s_moves = u == s_pos
        moving, fixed = (s, r) if s_moves else (r, s)
        hx, hz = geo.half_footprint(moving, assign)
        f = geo.placed_box(fixed, assign)
        grid = geo.grids[moving]
        ax, bx = _touch_run(grid.xs, hx, f[0], f[3])
        az, bz = _touch_run(grid.zs, hz, f[2], f[5])
        spans_x = _overlap_spans(grid.xs[ax:bx], hx, f[0], f[3], None if s_moves else f[3] - f[0])
        spans_z = _overlap_spans(grid.zs[az:bz], hz, f[2], f[5], None if s_moves else f[5] - f[2])
        # bit j is row az + j, for the rows that overlap
        rows = sum(1 << j for j, sz in enumerate(spans_z) if sz is not None)
        kept = 0
        shift = ax * grid.nz + az  # the bit of the column's row az
        for sx in spans_x:
            col = (mask >> shift) & rows if sx is not None else 0
            if col:
                w, width = sx
                keep = 0
                while col:
                    low = col & -col
                    if enough(w, width, *spans_z[low.bit_length() - 1]):
                        keep |= low
                    col ^= low
                kept |= keep << shift
            shift += grid.nz
        return kept

    return prune


def _distance_keep(grid: _Grid, px: float, pz: float, bound: float) -> int:
    """The cells of grid whose squared center distance to (px, pz) is <=
    bound, as a mask.

    (x - px) ** 2 equals (px - x) ** 2 exactly: IEEE subtraction rounds
    symmetrically, so the operand order of the predicate does not matter.
    Along one column the distance falls and then rises with z, also in
    floats, because each rounding is monotone: the z below pz give a
    non-increasing sum, those from pz on a non-decreasing one. So the cells
    of a column within the bound are one run [a, b) of rows.

    The columns are swept outward from kc, the first with x >= px: kc,
    kc + 1, ... on the right, then kc - 1, kc - 2, ... on the left. Along
    each side dx2 = (x - px) ** 2 never falls, and float addition is
    monotone in each operand, so a cell inside on a column is inside on
    every column before it on that side: each column's run is nested in
    the previous one's. Only the first column of a side is bisected, on
    each side of pz; each later column's run is found by moving a up and
    b down while the end row is outside, so a side costs its columns plus
    its rows, not a bisection per column. Once dx2 alone is past the bound
    no cell of that column or any later one is inside, and the side stops.
    """
    xs, zs, nz = grid.xs, grid.zs, grid.nz
    nx = len(xs)
    split = bisect_left(zs, pz)  # zs[:split] < pz <= zs[split:]
    kc = bisect_left(xs, px)  # xs[:kc] < px <= xs[kc:]
    keep = 0
    for first, stop, step in ((kc, nx, 1), (kc - 1, -1, -1)):
        for k in range(first, stop, step):
            dx2 = (xs[k] - px) ** 2
            if dx2 > bound:
                break  # adding dz ** 2 >= 0 cannot bring the sum back down
            if k == first:
                lo, hi = 0, split  # first row of the left side that is inside
                while lo < hi:
                    m = (lo + hi) // 2
                    if dx2 + (zs[m] - pz) ** 2 <= bound:
                        hi = m
                    else:
                        lo = m + 1
                a = lo
                lo, hi = split, nz  # first row of the right side that is outside
                while lo < hi:
                    m = (lo + hi) // 2
                    if dx2 + (zs[m] - pz) ** 2 <= bound:
                        lo = m + 1
                    else:
                        hi = m
                b = lo
            else:
                while a < b and dx2 + (zs[a] - pz) ** 2 > bound:
                    a += 1
                while a < b and dx2 + (zs[b - 1] - pz) ** 2 > bound:
                    b -= 1
            keep |= ((1 << (b - a)) - 1) << (a + k * nz)
    return keep


def _distance_pruner(geo, s: str, r: str, limit: float, within: bool):
    """Cells within (near) or beyond (far) limit of the placed partner.

    Near keeps _distance_keep's cells, those with d <= limit. Far keeps
    d >= limit, the rest of the grid once the cells with d < limit are
    taken out; for finite floats d < limit holds exactly when d <=
    nextafter(limit, -inf), so one closed bound serves both senses.
    """
    s_pos, r_pos = f"{s}.pos", f"{r}.pos"
    bound = limit if within else math.nextafter(limit, -math.inf)

    def prune(assign, u, mask):
        px, pz = assign[r_pos if u == s_pos else s_pos]
        grid = geo.grids[s if u == s_pos else r]
        keep = _distance_keep(grid, px, pz, bound)
        if not within:
            keep ^= grid.column_run(0, len(grid.xs))
        return mask & keep

    return prune


def _within_run(cs: list[float], p: float, limit: float) -> tuple[int, int]:
    """The run [a, b) of cs with |c - p| <= limit: c - p never falls as c
    grows, so it runs from the first c - p >= -limit to the first c - p >
    limit."""
    a = _first(cs, lambda c: c - p >= -limit)
    return a, _first(cs, lambda c: c - p > limit, a)


def _side_pruner(geo, s: str, r: str):
    """Cells beside the partner: within SIDE_LONG_MAX of it along r's facing
    and more than _TOL off that line across it.

    A cardinal's vector holds 0.0 and +-1.0, so the predicate's longitudinal
    offset is exactly +-dz (north, south) or +-dx (east, west), and its
    lateral offset exactly +-dx or +-dz. |c - p| equals |p - c| exactly, so
    either endpoint may move. Along the facing the kept rows (or columns)
    are one run; across it the kept columns (or rows) are all but one run.
    """
    s_pos, r_pos, r_dir = f"{s}.pos", f"{r}.pos", f"{r}.dir"
    along_max = SIDE_LONG_MAX + _TOL

    def prune(assign, u, mask):
        px, pz = assign[r_pos if u == s_pos else s_pos]
        grid = geo.grids[s if u == s_pos else r]
        if DIRECTION_VECTORS[assign[r_dir]][0] == 0.0:  # facing along z
            along = grid.row_run(*_within_run(grid.zs, pz, along_max))
            return mask & along & ~grid.column_run(*_within_run(grid.xs, px, _TOL))
        along = grid.column_run(*_within_run(grid.xs, px, along_max))
        return mask & along & ~grid.row_run(*_within_run(grid.zs, pz, _TOL))

    return prune


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


class CspProblem:
    def __init__(self, rooms, doorways, windows, objects, relations, config: SolverConfig):
        self.rooms = list(rooms)
        self.doorways = list(doorways)
        self.windows = list(windows)
        self.objects = list(objects)
        self.relations = list(relations)
        self.config = config
        self.geo = _Geometry(self.rooms, self.objects)
        self.variables: list[str] = []  # variable ids in search order
        self.domains: dict[str, Sequence] = {}
        self.constraints: list[CspConstraint] = []
        # the ids of the in constraints that no pair of grid cells satisfies
        self.cellless_in: set[str] = set()
        self._encode()

    # -- construction -------------------------------------------------------

    def _encode(self) -> None:
        res, grids = self.config.grid_resolution, self.config._grids
        # objects of one room with the same least footprint, and openings of
        # one width on one wall, share their grid lists, and so do the
        # problems encoded under one config; no caller mutates one
        def grid_points(lo: float, hi: float) -> list[float]:
            pts = grids.get((lo, hi))
            if pts is None:
                pts = grids[(lo, hi)] = _grid_points(lo, hi, res)
            return pts

        check_references(self.rooms, self.doorways, self.windows, self.objects, self.relations)
        conflicts, self.geo.base_y = _draft_conflicts(self.objects, self.relations)
        if conflicts:
            raise EncodingError("; ".join(c["message"] for c in conflicts))
        for i, a in enumerate(self.rooms):
            for b in self.rooms[i + 1 :]:
                if (
                    _overlap_1d(a.x_min, a.x_max, b.x_min, b.x_max) > _TOL
                    and _overlap_1d(a.z_min, a.z_max, b.z_min, b.z_max) > _TOL
                ):
                    raise EncodingError(f"rooms {a.id!r} and {b.id!r} overlap")

        # variables and domains
        order = sorted(
            self.objects, key=lambda o: (-(o.size[0] * o.size[2]), o.id)
        )
        names: dict[str, tuple[str, str]] = {}  # (.dir, .pos) per object, in search order
        for o in order:
            room = self.geo.rooms[o.room]
            fits_any = [
                d
                for d in DIRECTION_VECTORS
                if self.geo.footprints[(o.id, d)][0] <= room.x_max - room.x_min + _TOL
                and self.geo.footprints[(o.id, d)][1] <= room.z_max - room.z_min + _TOL
            ]
            if not fits_any:
                raise EncodingError(f"object {o.id!r} does not fit in room {room.id!r}")
            min_fx = min(self.geo.footprints[(o.id, d)][0] for d in fits_any)
            min_fz = min(self.geo.footprints[(o.id, d)][1] for d in fits_any)
            xs = grid_points(room.x_min + min_fx / 2, room.x_max - min_fx / 2)
            zs = grid_points(room.z_min + min_fz / 2, room.z_max - min_fz / 2)
            if not xs or not zs:
                raise EncodingError(f"no grid cell fits object {o.id!r} in room {room.id!r}")
            self.geo.grids[o.id] = _Grid(xs, zs)
            dir_var, pos_var = names[o.id] = f"{o.id}.dir", f"{o.id}.pos"
            self.variables += names[o.id]
            self.domains[dir_var] = list(DIRECTION_VECTORS)
            self.domains[pos_var] = self.geo.grids[o.id]

        for door in sorted(self.doorways, key=lambda d: d.id):
            a, b = door.connects
            if EXTERIOR in (a, b):
                room = self.geo.rooms[a if b == EXTERIOR else b]
                # it opens to the outside, so onto no wall shared with a room
                shared = [
                    w
                    for other in self.geo.rooms.values()
                    if other is not room and (w := _shared_wall(room, other)) is not None
                ]
                cells = []
                for orientation in ("north", "south", "east", "west"):
                    wall = _wall_of(room, orientation)
                    cells += _positions_on_wall(wall, door.width, grid_points, shared)
            else:
                wall = _shared_wall(self.geo.rooms[a], self.geo.rooms[b])
                if wall is None:
                    raise EncodingError(f"doorway {door.id!r} connects non-adjacent rooms")
                cells = _positions_on_wall(wall, door.width, grid_points)
            if not cells:
                raise EncodingError(f"doorway {door.id!r} does not fit on its wall")
            if door.height > WALL_HEIGHT + _TOL:
                raise EncodingError(f"doorway {door.id!r} is taller than the walls")
            self.variables.append(f"{door.id}.pos")
            self.domains[f"{door.id}.pos"] = cells

        for win in sorted(self.windows, key=lambda w: w.id):
            if win.sill_height + win.height > WALL_HEIGHT + _TOL:
                raise EncodingError(f"window {win.id!r} does not fit under the wall height")
            wall = _wall_of(self.geo.rooms[win.room], win.orientation)
            cells = _positions_on_wall(wall, win.width, grid_points)
            if not cells:
                raise EncodingError(f"window {win.id!r} is wider than its wall")
            self.variables.append(f"{win.id}.pos")
            self.domains[f"{win.id}.pos"] = cells

        self._emit_constraints(names)

    def _emit_constraints(self, names: dict[str, tuple[str, str]]) -> None:
        geo = self.geo
        constraints = self.constraints
        # _encode appends each object's .dir and .pos next to each other, in
        # search order, so a scope's variables in search order are its
        # objects' names, the lower-ranked object's first. Distance and
        # alignment predicates read footprint centers only, so their scope
        # takes no direction variable: forward checking then prunes a
        # position domain as soon as the other endpoint's position is known
        rank = {o: k for k, o in enumerate(names)}

        def pair_variables(a: str, b: str, kind: str) -> tuple[str, ...]:
            if rank[a] > rank[b]:
                a, b = b, a
            if kind in _POSITION_ONLY_KINDS:
                return names[a][1], names[b][1]
            return names[a] + names[b]

        for o in self.objects:
            room = geo.rooms[o.room]

            def contained(assign, o=o, room=room):
                box = geo.placed_box(o.id, assign)
                return (
                    box[0] >= room.x_min - _TOL
                    and box[2] >= room.z_min - _TOL
                    and box[3] <= room.x_max + _TOL
                    and box[5] <= room.z_max + _TOL
                )

            constraints.append(
                CspConstraint(
                    f"phys:containment:{o.id}",
                    "room_containment",
                    (o.id,),
                    names[o.id],
                    contained,
                    _containment_pruner(geo, o.id, room),
                )
            )

        # relations come before the pairwise non-collision constraints, so
        # forward checking first cuts a supported object's position domain
        # down to the cells over its host
        for idx, rel in enumerate(self.relations):
            s, r = rel.subject, rel.reference
            cid = f"rel[{idx}]:{rel.kind}:{s}"
            if rel.kind == "in" and not _in_cells_exist(geo, s, r):
                self.cellless_in.add(cid)
            constraints.append(
                CspConstraint(
                    cid,
                    rel.kind,
                    (s,) if r is None else (s, r),
                    names[s] if r is None else pair_variables(s, r, rel.kind),
                    *self._relation(rel),
                    rel.priority == "enrichment" and rel.kind not in SUPPORT_KINDS,
                    idx,
                )
            )

        in_pairs = {(rel.subject, rel.reference) for rel in self.relations if rel.kind == "in"}
        spans = {o.id: geo.y_span(o.id) for o in self.objects}
        by_room: dict[str, list[str]] = {}
        for o in self.objects:
            by_room.setdefault(o.room, []).append(o.id)
        for room_objects in by_room.values():
            for i, a in enumerate(room_objects):
                a_lo, a_hi = spans[a]
                for b in room_objects[i + 1 :]:
                    if (a, b) in in_pairs or (b, a) in in_pairs:
                        continue  # containment implies overlap by design

                    def apart(assign, a=a, b=b):
                        ba = geo.placed_box(a, assign)
                        bb = geo.placed_box(b, assign)
                        return (
                            _overlap_1d(ba[0], ba[3], bb[0], bb[3]) <= _TOL
                            or _overlap_1d(ba[1], ba[4], bb[1], bb[4]) <= _TOL
                            or _overlap_1d(ba[2], ba[5], bb[2], bb[5]) <= _TOL
                        )

                    # boxes whose heights do not overlap never collide
                    if _overlap_1d(a_lo, a_hi, *spans[b]) <= _TOL:
                        prune = _keep_all
                    else:
                        prune = _non_collision_pruner(geo, a, names[a][1], b)
                    constraints.append(
                        CspConstraint(
                            f"phys:non_collision:{a}+{b}",
                            "non_collision",
                            (a, b),
                            pair_variables(a, b, "non_collision"),
                            apart,
                            prune,
                        )
                    )

    # -- relation predicates (solver-side geometry) -------------------------

    def _relation(self, rel: SpatialRelation):
        """The relation's predicate and its pruner, or None for the pruner
        where forward checking sets and checks each value."""
        geo = self.geo
        s = rel.subject
        r = rel.reference
        room = geo.rooms[geo.objects[s].room]
        prune = None

        def sbox(assign):
            return geo.placed_box(s, assign)

        def rbox(assign):
            return geo.placed_box(r, assign)

        def centers(assign):
            sx, sz = assign[f"{s}.pos"]
            rx, rz = assign[f"{r}.pos"]
            return sx, sz, rx, rz

        if rel.kind == "near":

            def check(assign):
                sx, sz, rx, rz = centers(assign)
                return (sx - rx) ** 2 + (sz - rz) ** 2 <= NEAR_MAX**2 + _TOL

            prune = _distance_pruner(geo, s, r, NEAR_MAX**2 + _TOL, True)

        elif rel.kind == "far":

            def check(assign):
                sx, sz, rx, rz = centers(assign)
                return (sx - rx) ** 2 + (sz - rz) ** 2 >= FAR_MIN**2 - _TOL

            prune = _distance_pruner(geo, s, r, FAR_MIN**2 - _TOL, False)

        elif rel.kind == "on_top_of":

            def check(assign):
                # no height test: _support_plan puts s's bottom at r's top,
                # rounded to 6 places, far inside SUPPORT_EPS
                a, b = sbox(assign), rbox(assign)
                w = _overlap_1d(a[0], a[3], b[0], b[3])
                d = _overlap_1d(a[2], a[5], b[2], b[5])
                if w <= 0 or d <= 0:
                    return False
                return w * d >= SUPPORT_OVERLAP_FRAC * (a[3] - a[0]) * (a[5] - a[2]) - _TOL

            def enough(w, width, d, depth):
                return w * d >= SUPPORT_OVERLAP_FRAC * width * depth - _TOL

            prune = _resting_pruner(geo, s, r, enough)

        elif rel.kind == "in":

            def check(assign):
                a, b = sbox(assign), rbox(assign)
                return (
                    _inside_span(a[0], a[3], b[0], b[3])
                    and _inside_span(a[2], a[5], b[2], b[5])
                    and _inside_span(a[1], a[4], b[1], b[4])
                )

        elif rel.kind == "edge":

            def check(assign):
                a = sbox(assign)
                gap = min(
                    a[0] - room.x_min,
                    room.x_max - a[3],
                    a[2] - room.z_min,
                    room.z_max - a[5],
                )
                return gap <= EDGE_MAX + _TOL

            prune = _edge_pruner(geo, s, room, EDGE_MAX + _TOL)

        elif rel.kind == "center":
            cx, cz = room.center

            def check(assign):
                sx, sz = assign[f"{s}.pos"]
                return (sx - cx) ** 2 + (sz - cz) ** 2 <= CENTER_MAX**2 + _TOL

        elif rel.kind == "mounted_on_wall":

            def check(assign):
                a = sbox(assign)
                direction = assign[f"{s}.dir"]
                back = {
                    "north": a[2] - room.z_min,
                    "south": room.z_max - a[5],
                    "east": a[0] - room.x_min,
                    "west": room.x_max - a[3],
                }[direction]
                return abs(back) <= MOUNT_EPS + _TOL and a[1] > _TOL

            if geo.y_span(s)[0] > _TOL:
                prune = _wall_back_pruner(geo, s, room, MOUNT_EPS + _TOL)
            else:
                prune = _keep_none

        elif rel.kind == "above":

            def check(assign):
                a, b = sbox(assign), rbox(assign)
                if a[1] < b[4] - SUPPORT_EPS:
                    return False
                w = _overlap_1d(a[0], a[3], b[0], b[3])
                d = _overlap_1d(a[2], a[5], b[2], b[5])
                return w > 0 and d > 0

        elif rel.kind == "in_front_of":

            def check(assign):
                a = sbox(assign)
                rx, rz = assign[f"{r}.pos"]
                direction = assign[f"{r}.dir"]
                fx, fz = geo.footprints[(r, direction)]
                # reach is measured from the front face: the half-extent along the facing
                half = fx / 2 if DIRECTION_VECTORS[direction][0] else fz / 2
                return _ray_hits(a, rx, rz, direction, FRONT_MAX + half)

        elif rel.kind == "side_of":

            def check(assign):
                sx, sz, rx, rz = centers(assign)
                dx, dz = sx - rx, sz - rz
                fvx, fvz = DIRECTION_VECTORS[assign[f"{r}.dir"]]
                longitudinal = dx * fvx + dz * fvz
                lateral = dx * -fvz + dz * fvx
                return abs(longitudinal) <= SIDE_LONG_MAX + _TOL and abs(lateral) > _TOL

            prune = _side_pruner(geo, s, r)

        elif rel.kind == "center_aligned":

            def check(assign):
                sx, sz, rx, rz = centers(assign)
                return (
                    abs(sx - rx) <= CENTER_ALIGNED_EPS + _TOL
                    or abs(sz - rz) <= CENTER_ALIGNED_EPS + _TOL
                )

        else:  # face_to

            def check(assign):
                a, b = sbox(assign), rbox(assign)
                sx, sz = assign[f"{s}.pos"]
                rx, rz = assign[f"{r}.pos"]
                return _ray_hits(b, sx, sz, assign[f"{s}.dir"], None) and _ray_hits(
                    a, rx, rz, assign[f"{r}.dir"], None
                )

        return check, prune

    # -- evaluation helpers --------------------------------------------------

    def value_order(self, vid: str) -> _ValueOrder:
        """The permutation of vid's domain indices that the search tries its
        values in, drawn from vid's own stream random.Random(f"{seed}:{vid}").

        It depends only on the seed, vid and the size of vid's domain. The
        config keeps one per (vid, size), so every solve of a problem encoded
        under it replays what earlier ones drew.
        """
        key = (vid, len(self.domains[vid]))
        orders = self.config._orders
        order = orders.get(key)
        if order is None:
            rng = random.Random(f"{self.config.seed}:{vid}")
            order = orders[key] = _ValueOrder(rng, key[1])
        return order

    def relax_order(self) -> list[CspConstraint]:
        """Relaxable constraints in drop order: distance, relative, unary."""
        groups = (DISTANCE_KINDS, RELATIVE_KINDS, UNARY_KINDS)
        out = []
        for group in groups:
            for c in self.constraints:
                if c.relaxable and c.kind in group:
                    out.append(c)
        return out


def _ray_hits(rect_box, ox: float, oz: float, direction: str, max_dist: float | None) -> bool:
    """Does the ray from (ox, oz) along a cardinal hit the box footprint?

    max_dist bounds the distance from the origin to the box's near edge
    (None = unbounded). The origin sitting inside the footprint counts as
    a hit at distance zero.
    """
    x0, _, z0, x1, _, z1 = rect_box
    if direction == "north":
        lateral_ok = x0 - _TOL <= ox <= x1 + _TOL
        ahead = z1 >= oz - _TOL
        dist = z0 - oz
    elif direction == "south":
        lateral_ok = x0 - _TOL <= ox <= x1 + _TOL
        ahead = z0 <= oz + _TOL
        dist = oz - z1
    elif direction == "east":
        lateral_ok = z0 - _TOL <= oz <= z1 + _TOL
        ahead = x1 >= ox - _TOL
        dist = x0 - ox
    else:
        lateral_ok = z0 - _TOL <= oz <= z1 + _TOL
        ahead = x0 <= ox + _TOL
        dist = ox - x1
    if not (lateral_ok and ahead):
        return False
    if max_dist is None:
        return True
    return dist <= max_dist + _TOL


class _ValueOrder:
    """A seeded permutation of range(n), drawn as it is read.

    Iterating yields the permutation a forward Fisher-Yates shuffle of
    range(n) makes: step k swaps position k with position
    k + rng.randrange(n - k) and fixes it. A step runs only when an iterator
    first reaches position k, and the array being shuffled is a dict that
    holds just the positions the steps so far have moved. Fixed positions
    go to ``drawn``, so a later iterator replays them without drawing.
    """

    __slots__ = ("n", "drawn", "_rng", "_moved")

    def __init__(self, rng: random.Random, n: int):
        self.n = n
        self.drawn: list[int] = []
        self._rng = rng
        self._moved: dict[int, int] = {}

    def __iter__(self):
        drawn, moved, n = self.drawn, self._moved, self.n
        getrandbits = self._rng.getrandbits
        for k in range(n):
            if k == len(drawn):
                # k + randrange(n - k), drawn as randrange does on Python 3.10-3.13
                bits = (n - k).bit_length()
                j = k + getrandbits(bits)
                while j >= n:
                    j = k + getrandbits(bits)
                drawn.append(moved.get(j, j))
                moved[j] = moved.pop(k, k)
            yield drawn[k]


def encode(rooms, doorways, windows, objects, relations, config: SolverConfig | None = None) -> CspProblem:
    """Build the CSP for a scene draft; raises SchemaViolation where
    check_references does and EncodingError when the draft is impossible."""
    return CspProblem(rooms, doorways, windows, objects, relations, config or SolverConfig())


# ---------------------------------------------------------------------------
# static unsat proofs
# ---------------------------------------------------------------------------

# the least center distance a far allows, and the most a near allows
_FAR_BOUND = math.sqrt(FAR_MIN**2 - _TOL)
_NEAR_BOUND = math.sqrt(NEAR_MAX**2 + _TOL)
# how far a far must pass its pair's closed upper bound before the check
# trusts it: far above the float rounding of the predicates and of a sum of
# bounds, far below any grid step
_BOUND_MARGIN = 1e-6
_STATIC_KINDS = frozenset({"near", "far", "on_top_of", "in", "above", "mounted_on_wall"})


def _host_bound(geo: _Geometry, s: str, r: str, kind: str) -> float:
    """An upper bound on the center distance of s and its host r under
    on_top_of or in: r's half-diagonal plus sqrt(2) times a slack per axis.

    Along x, with s's half-footprint hx, r's gx and the centers sx and rx:
    in keeps s's span inside r's widened by _IN_EPS, so |sx - rx| <= gx - hx
    + _IN_EPS. on_top_of keeps w * d >= f * W * D - _TOL, where w x
    d is the overlap, W x D is s's footprint and f is SUPPORT_OVERLAP_FRAC;
    d <= D, so w >= f * W - _TOL / D. The overlap is at most the distance
    from s's near edge to r's far edge, w <= hx + gx - |sx - rx|, so |sx -
    rx| <= gx + (1 - 2f) * hx + _TOL / D: with f = 0.5, s's center lies over
    r's footprint, up to _TOL / D. z alike. With m the larger slack of the
    two axes, the distance is at most hypot(gx + m, gz + m) <= hypot(gx, gz)
    + sqrt(2) * m, and hypot(gx, gz) is r's half-diagonal whatever its
    direction; hx is at most s's half-diagonal.
    """
    r_x, _, r_z = geo.objects[r].size
    s_x, _, s_z = geo.objects[s].size
    if kind == "in":
        slack = _IN_EPS
    else:
        least = min(s_x, s_z)
        slack = max(0.0, 1 - 2 * SUPPORT_OVERLAP_FRAC) * math.hypot(s_x, s_z) / 2
        # an s without area satisfies no on_top_of, so any bound holds for it
        slack += _TOL / least if least > 0 else 0.0
    return math.hypot(r_x, r_z) / 2 + math.sqrt(2) * slack


def _inside_run_exists(cs: list[float], hc: float, ps: list[float], hp: float) -> bool:
    """Do some c in cs and p in ps put [c - hc, c + hc] inside [p - hp, p +
    hp] by _inside_span? For each p, c - hc >= p - hp - _IN_EPS turns true
    once along the sorted cs and c + hc <= p + hp + _IN_EPS turns false once,
    so the c that pass are one run: the first c that passes the low test
    passes both, or no c does."""
    for p in ps:
        lo, hi = p - hp, p + hp
        i = _first(cs, lambda c: c - hc >= lo - _IN_EPS)
        if i < len(cs) and _inside_span(cs[i] - hc, cs[i] + hc, lo, hi):
            return True
    return False


def _in_cells_exist(geo: _Geometry, s: str, r: str) -> bool:
    """Does some pair of cells of s's and r's grids, in some pair of
    directions, satisfy s in r?

    The in predicate is one _inside_span test per axis on geo.box's
    extents. encode has already refused a draft whose fixed y extents fail
    it (containment_capacity). The x (z) extents of a pair of directions
    depend on the two x (z) coordinates alone, so each axis is decided on
    its own, per pair of footprints, by bisection on one grid's coordinates
    for each of the other's, never over the product of the two domains.
    """
    gs, gr = geo.grids[s], geo.grids[r]
    shapes = {
        (geo.footprints[(s, ds)], geo.footprints[(r, dr)])
        for ds in DIRECTION_VECTORS
        for dr in DIRECTION_VECTORS
    }
    return any(
        _inside_run_exists(gs.xs, fsx / 2, gr.xs, frx / 2)
        and _inside_run_exists(gs.zs, fsz / 2, gr.zs, frz / 2)
        for (fsx, fsz), (frx, frz) in shapes
    )


def _static_core(problem: CspProblem, skip: frozenset) -> frozenset | None:
    """An unsat core of the rung that keeps every constraint outside skip,
    proved without search, or None.

    Heights are fixed before the search, so the height-only tests of above
    (a[1] < b[4] - SUPPORT_EPS fails it) and mounted_on_wall (a[1] > _TOL)
    are evaluated once, with the predicates' own float expressions; a
    failing one is a core by itself. (in's are a pre-solve rule.) So is an
    in that encode found no pair of grid cells to satisfy, in any
    directions (problem.cellless_in).

    When the rung keeps a far, every pair of the objects that near, far,
    on_top_of and in name gets an upper bound on its center distance: the
    tightest of _NEAR_BOUND, _host_bound and the room bound, with the id of
    the relation behind it. Floyd-Warshall closes the bounds under the
    triangle inequality and unions the ids along each path. A far whose
    _FAR_BOUND exceeds its pair's closed bound by more than _BOUND_MARGIN
    cannot hold with the relations on that path: those ids and the far's
    are the core.
    """
    geo = problem.geo
    upper: dict[tuple[str, str], tuple[float, str]] = {}  # the tightest relation bound per pair
    fars: list[tuple[str, str, str]] = []
    for c in problem.constraints:
        if c.kind not in _STATIC_KINDS or c.id in skip:
            continue
        s = c.scope[0]
        if c.kind == "mounted_on_wall":
            if not geo.y_span(s)[0] > _TOL:
                return frozenset((c.id,))
            continue
        r = c.scope[1]
        if c.kind == "above":
            if geo.y_span(s)[0] < geo.y_span(r)[1] - SUPPORT_EPS:
                return frozenset((c.id,))
            continue
        if c.kind == "far":
            fars.append((s, r, c.id))
            continue
        if c.id in problem.cellless_in:
            return frozenset((c.id,))
        bound = _NEAR_BOUND if c.kind == "near" else _host_bound(geo, s, r, c.kind)
        pair = (s, r) if s < r else (r, s)
        if pair not in upper or bound < upper[pair][0]:
            upper[pair] = (bound, c.id)
    if not fars:
        return None

    nodes = sorted({o for pair in upper for o in pair} | {o for s, r, _ in fars for o in (s, r)})
    # a bound of _FAR_BOUND or more rules out no far, alone or on a path, so
    # it stands for no bound, and a path through it is not followed. The room
    # bound of two objects is the largest center distance on their grids,
    # from a corner of one grid's bounding box to the farthest corner of the
    # other's. Along x it is at least the mean of the two grids' widths, so
    # when even the narrowest grids put it at _FAR_BOUND or more, no room
    # bound counts, and only a far whose ends relation bounds join can fail.
    boxes = [(g.xs[0], g.xs[-1], g.zs[0], g.zs[-1]) for g in map(geo.grids.__getitem__, nodes)]
    narrowest = math.hypot(min(b[1] - b[0] for b in boxes), min(b[3] - b[2] for b in boxes))
    if narrowest >= _FAR_BOUND:
        joined = {o: {o} for o in nodes}  # the objects relation bounds join to each
        for a, b in upper:
            if joined[a] is not joined[b]:
                merged = joined[a] | joined[b]
                for o in merged:
                    joined[o] = merged
        if all(r not in joined[s] for s, r, _ in fars):
            return None
    index = {o: i for i, o in enumerate(nodes)}
    n = len(nodes)
    dist = [[_FAR_BOUND] * n for _ in range(n)]
    why = [[frozenset()] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0.0
    for i, (ax0, ax1, az0, az1) in enumerate(boxes if narrowest < _FAR_BOUND else ()):
        for j in range(i + 1, n):
            bx0, bx1, bz0, bz1 = boxes[j]
            bound = math.hypot(max(ax1 - bx0, bx1 - ax0), max(az1 - bz0, bz1 - az0))
            if bound < _FAR_BOUND:
                dist[i][j] = dist[j][i] = bound
    for (a, b), (bound, cid) in upper.items():
        i, j = index[a], index[b]
        if bound < dist[i][j]:
            dist[i][j] = dist[j][i] = bound
            why[i][j] = why[j][i] = frozenset((cid,))
    for k in range(n):
        dist_k, why_k = dist[k], why[k]
        for i in range(n):
            d_ik = dist[i][k]
            if d_ik >= _FAR_BOUND:
                continue
            w_ik, dist_i, why_i = why[i][k], dist[i], why[i]
            for j in range(n):
                if d_ik + dist_k[j] < dist_i[j]:
                    dist_i[j] = d_ik + dist_k[j]
                    why_i[j] = w_ik | why_k[j]
    for s, r, cid in fars:
        i, j = index[s], index[r]
        if _FAR_BOUND > dist[i][j] + _BOUND_MARGIN:
            return why[i][j] | {cid}
    return None


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def solve(problem: CspProblem, skip: frozenset = frozenset()) -> Solution:
    """Backtracking search with forward checking.

    Returns a sat Solution with placements, or an unsat Solution with an
    unsat core in Solution.pruning: the core _static_core proves, with zero
    stats and no search, or else, once the search space is exhausted, the
    ids of the constraints that removed a value. Raises SolverTimeout when
    max_backtracks is hit. ``skip`` names constraint ids to ignore (used by
    relaxation). Overlapping rooms never get here: encode rejects them with
    EncodingError.
    """
    core = _static_core(problem, skip)
    if core is not None:
        return Solution(status="unsat", stats={"backtracks": 0, "assignments": 0}, pruning=core)
    config = problem.config
    order = problem.variables
    domains = problem.domains
    orders = {vid: problem.value_order(vid) for vid in order}
    masks = {vid: (1 << len(domains[vid])) - 1 for vid in order}

    # variables are assigned depth-first in a static order, so a constraint
    # has exactly one unassigned variable, its last, right after its
    # second-to-last one is assigned: forward checking runs it there
    plan: dict[str, list[CspConstraint]] = {vid: [] for vid in order}
    for c in problem.constraints:
        if c.id not in skip:
            plan[c.variables[-2]].append(c)

    assignment: dict[str, object] = {}
    stats = {"backtracks": 0, "assignments": 0}
    pruning: set[str] = set()  # constraints that changed a mask

    def forward_check(vid: str, trail: list) -> bool:
        for c in plan[vid]:
            u = c.variables[-1]
            mask = masks[u]
            if c.prune is not None:
                keep = c.prune(assignment, u, mask)
            else:
                domain, check = domains[u], c.check

                def holds(i):
                    assignment[u] = domain[i]
                    return check(assignment)

                keep = _filter_bits(mask, holds)
                assignment.pop(u, None)
            if keep != mask:  # a mask is never empty here, so emptying one changes it
                trail.append((u, mask))
                masks[u] = keep
                pruning.add(c.id)
            if not keep:
                return False
        return True

    def backtrack(depth: int) -> bool:
        if depth == len(order):
            return True
        vid = order[depth]
        domain = domains[vid]
        # forward checking prunes only later variables, so this node's
        # surviving values are fixed: read them once, as a string of bits
        alive = bin(masks[vid] | 1 << len(domain))[:2:-1]  # alive[i] is bit i
        for i in orders[vid]:
            if alive[i] != "1":
                continue
            assignment[vid] = domain[i]
            stats["assignments"] += 1
            trail: list = []
            if forward_check(vid, trail):
                if backtrack(depth + 1):
                    return True
            for u, old in reversed(trail):
                masks[u] = old
            del assignment[vid]
            stats["backtracks"] += 1
            if stats["backtracks"] > config.max_backtracks:
                raise SolverTimeout(
                    f"backtrack budget of {config.max_backtracks} exceeded"
                )
        return False

    try:
        found = backtrack(0)
    finally:
        backtrack = None  # the closure refers to itself: break the cycle
    if not found:
        return Solution(status="unsat", stats=dict(stats), pruning=frozenset(pruning))

    placements = []
    for o in problem.objects:
        x, z = assignment[f"{o.id}.pos"]
        placements.append(
            Placement(
                object=o.id,
                position=(x, problem.geo.base_y[o.id], z),
                direction=assignment[f"{o.id}.dir"],
            )
        )
    doors = {d.id: tuple(assignment[f"{d.id}.pos"]) for d in problem.doorways}
    windows = {w.id: tuple(assignment[f"{w.id}.pos"]) for w in problem.windows}
    return Solution(
        status="sat",
        assignments=dict(assignment),
        placements=placements,
        door_positions=doors,
        window_positions=windows,
        stats=dict(stats),
    )


def solve_with_relaxation(problem: CspProblem) -> Solution:
    """Solve, dropping relaxable constraints one at a time in policy order.

    The returned Solution.relaxed is always a prefix of the relax order.
    Raises CoreUnsat when the problem stays unsat with every relaxable
    constraint dropped; SolverTimeout propagates untouched.

    A rung that keeps every id of the last unsat rung's pruning, an unsat
    core, is not searched: it is unsat too. For a searched proof the core
    is the set of constraints that removed a value; without any other one,
    every node keeps its masks, value-order draws and backtrack count, and
    the search is the same tree with the same unsat answer. So after an
    unsat rung the ladder is dropped up to and including the next constraint
    in pruning, and when none is left the problem is CoreUnsat. A rung that
    solve proves statically costs no search; the first sat rung, and so the
    placements, relaxed list and stats, are the same as with every rung
    searched, unless a search would have hit the budget first.
    """
    ladder = [c.id for c in problem.relax_order()]
    dropped: list[str] = []
    while True:
        solution = solve(problem, skip=frozenset(dropped))
        if solution.status == "sat":
            solution.relaxed = list(dropped)
            return solution
        rest = ladder[len(dropped) :]
        used = next((i for i, cid in enumerate(rest) if cid in solution.pruning), None)
        if used is None:
            raise CoreUnsat(
                "unsatisfiable with all relaxable constraints dropped "
                f"({len(ladder)} dropped)"
            )
        dropped += rest[: used + 1]
