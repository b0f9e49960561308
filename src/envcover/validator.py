"""Physics validation of placed environments.

Checks a finished EnvironmentSpec along three dimensions. The verdict is
the list of violations found, and each violation's rule names its
dimension, so a dimension passes exactly when no violation carries its rule:

- floor_plan: rooms are well-formed rectangles that do not overlap,
  doorways sit on the shared wall of the rooms they connect, an exterior
  doorway sits on a wall of its room and opens onto no other room, windows
  sit in their room's wall with a positive sill and fit under the wall
  height.
- entity: every object is placed inside its declared room, no two object
  boxes collide (containment pairs exempt), and nothing floats: an object
  floats exactly when environment.support_location, the rule that writes
  its metadata location, finds it neither inside a container on its
  bottom, nor resting on another object's top face, nor on the floor, nor
  mounted with its back on its wall.
- relation: every declared spatial relation holds geometrically, and a
  contact or relative one has its subject and reference in one room, except
  the ones listed in relaxed_relations, which are skipped and reported.

All geometry here is computed from the serialized placements, with the
support and overlap helpers of environment.py. The layout solver has its
own predicate implementations and shares none of these; this module never
calls into it, so a solver bug cannot vouch for itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .environment import (
    _TOL,
    DISTANCE_KINDS,
    EXTERIOR,
    EnvironmentSpec,
    Room,
    back_gap,
    inside,
    mounted_subjects,
    overlap,
    placed_box,
    placed_boxes,
    rests_on,
    support_location,
)
from .semantics import (
    CARDINALS,
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
    WALL_HEIGHT,
)
from .task_model import Violation


@dataclass
class PhysicsReport:
    """A scene's violations, floor_plan ones first, then entity, then
    relation, and the relaxed relations it skipped. A dimension fails when a
    failure carries its rule; the scene passes when there is no failure."""

    failures: list[Violation] = field(default_factory=list)
    skipped_relations: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _box_center(box) -> tuple[float, float]:
    return ((box[0] + box[3]) / 2, (box[2] + box[5]) / 2)


def _ray_reaches(origin_x: float, origin_z: float, direction: str, box, limit: float | None) -> bool:
    fx, fz = DIRECTION_VECTORS[direction]
    if fx == 0:
        if not (box[0] - _TOL <= origin_x <= box[3] + _TOL):
            return False
        near, far = (box[2], box[5]) if fz > 0 else (box[5], box[2])
        if (far - origin_z) * fz < -_TOL:
            return False
        dist = (near - origin_z) * fz
    else:
        if not (box[2] - _TOL <= origin_z <= box[5] + _TOL):
            return False
        near, far = (box[0], box[3]) if fx > 0 else (box[3], box[0])
        if (far - origin_x) * fx < -_TOL:
            return False
        dist = (near - origin_x) * fx
    if limit is None:
        return True
    return dist <= limit + _TOL


def _wall(room: Room, side: str) -> tuple[str, float, float, float]:
    """(axis, coord, lo, hi): the wall at axis == coord, spanning lo..hi
    along the other axis."""
    if side == "north":
        return ("z", room.z_max, room.x_min, room.x_max)
    if side == "south":
        return ("z", room.z_min, room.x_min, room.x_max)
    if side == "east":
        return ("x", room.x_max, room.z_min, room.z_max)
    return ("x", room.x_min, room.z_min, room.z_max)


def _shared_walls(a: Room, b: Room) -> list[tuple[str, float, float, float]]:
    """The walls two rooms share: where a side of one lies on a side of the
    other, the stretch of it that both rooms span (lo >= hi when they share
    no more than a corner)."""
    walls = []
    if abs(a.x_max - b.x_min) <= _TOL or abs(b.x_max - a.x_min) <= _TOL:
        wall_x = a.x_max if abs(a.x_max - b.x_min) <= _TOL else b.x_max
        walls.append(("x", wall_x, max(a.z_min, b.z_min), min(a.z_max, b.z_max)))
    if abs(a.z_max - b.z_min) <= _TOL or abs(b.z_max - a.z_min) <= _TOL:
        wall_z = a.z_max if abs(a.z_max - b.z_min) <= _TOL else b.z_max
        walls.append(("z", wall_z, max(a.x_min, b.x_min), min(a.x_max, b.x_max)))
    return walls


def _on_wall(position, half: float, wall) -> bool:
    """An opening of half-width half centred at position sits in the wall:
    on its line, and within its span."""
    axis, coord, lo, hi = wall
    across, along = position if axis == "x" else (position[1], position[0])
    return abs(across - coord) <= _TOL and lo - _TOL <= along - half and along + half <= hi + _TOL


def _opens_onto(position, half: float, wall) -> bool:
    """An opening of half-width half centred at position opens onto the
    wall: on its line, and overlapping its span by more than _TOL."""
    axis, coord, lo, hi = wall
    across, along = position if axis == "x" else (position[1], position[0])
    return abs(across - coord) <= _TOL and overlap(along - half, along + half, lo, hi) > _TOL


def check_floor_plan(env: EnvironmentSpec) -> list[Violation]:
    out: list[Violation] = []
    for i, a in enumerate(env.rooms):
        for b in env.rooms[i + 1 :]:
            wx = overlap(a.x_min, a.x_max, b.x_min, b.x_max)
            wz = overlap(a.z_min, a.z_max, b.z_min, b.z_max)
            if wx > _TOL and wz > _TOL:
                out.append(
                    Violation(
                        "floor_plan",
                        f"{a.id}+{b.id}",
                        f"rooms {a.id} and {b.id} overlap by {wx:.3f}x{wz:.3f} m",
                    )
                )
    for door in env.doorways:
        loc = door.id
        if door.position is None:
            out.append(Violation("floor_plan", loc, "doorway has no position"))
            continue
        if door.height > WALL_HEIGHT + _TOL:
            out.append(Violation("floor_plan", loc, "doorway taller than the wall"))
        half = door.width / 2
        side_rooms = [env.room_by_id(s) for s in door.connects if s != EXTERIOR]
        if len(side_rooms) == 2:
            if not any(_on_wall(door.position, half, w) for w in _shared_walls(*side_rooms)):
                out.append(
                    Violation("floor_plan", loc, "doorway is not on the shared wall of its rooms")
                )
            continue
        room = side_rooms[0]
        if not any(_on_wall(door.position, half, _wall(room, side)) for side in CARDINALS):
            out.append(
                Violation("floor_plan", loc, "exterior doorway is not on a wall of its room")
            )
        if any(
            _opens_onto(door.position, half, w)
            for other in env.rooms
            if other is not room
            for w in _shared_walls(room, other)
        ):
            out.append(Violation("floor_plan", loc, "exterior doorway opens onto another room"))
    for win in env.windows:
        loc = win.id
        if win.position is None:
            out.append(Violation("floor_plan", loc, "window has no position"))
            continue
        if win.sill_height <= _TOL:
            out.append(Violation("floor_plan", loc, "window sill must sit above the floor"))
        if win.sill_height + win.height > WALL_HEIGHT + _TOL:
            out.append(Violation("floor_plan", loc, "window does not fit under the wall height"))
        wall = _wall(env.room_by_id(win.room), win.orientation)
        if not _on_wall(win.position, win.width / 2, wall):
            out.append(Violation("floor_plan", loc, "window is not within its wall span"))
    return out


def check_entities(env: EnvironmentSpec) -> list[Violation]:
    out: list[Violation] = []
    boxes = placed_boxes(env)
    mounted = mounted_subjects(env)
    in_pairs = {frozenset((r.subject, r.reference)) for r in env.relations if r.kind == "in"}

    for obj in env.objects:
        room = env.room_by_id(obj.room)
        box = boxes[obj.id]
        if not (
            box[0] >= room.x_min - SUPPORT_EPS
            and box[2] >= room.z_min - SUPPORT_EPS
            and box[3] <= room.x_max + SUPPORT_EPS
            and box[5] <= room.z_max + SUPPORT_EPS
        ):
            out.append(
                Violation("entity", obj.id, f"object {obj.id} is outside its room {room.id}")
            )
        if box[4] > WALL_HEIGHT + SUPPORT_EPS:
            out.append(Violation("entity", obj.id, f"object {obj.id} pokes through the ceiling"))

    ids = [o.id for o in env.objects]
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            a, b = ids[i], ids[j]
            if frozenset((a, b)) in in_pairs:
                continue
            ba, bb = boxes[a], boxes[b]
            if (
                overlap(ba[0], ba[3], bb[0], bb[3]) > _TOL
                and overlap(ba[1], ba[4], bb[1], bb[4]) > _TOL
                and overlap(ba[2], ba[5], bb[2], bb[5]) > _TOL
            ):
                out.append(Violation("entity", f"{a}+{b}", f"objects {a} and {b} collide"))

    for obj in env.objects:
        if support_location(env, obj, boxes, mounted) == "floating":
            out.append(
                Violation(
                    "entity",
                    obj.id,
                    f"object {obj.id} floats at height {boxes[obj.id][1]:.3f} with no support",
                )
            )
    return out


def _relation_holds(env: EnvironmentSpec, idx: int) -> str | None:
    """None when the relation holds, else a human-readable reason."""
    rel = env.relations[idx]
    subject = env.object_by_id(rel.subject)
    sbox = placed_box(subject, env.placement_of(rel.subject))
    scx, scz = _box_center(sbox)
    room = env.room_by_id(subject.room)

    if rel.kind == "edge":
        x_gap = min(sbox[0] - room.x_min, room.x_max - sbox[3])
        gap = min(x_gap, sbox[2] - room.z_min, room.z_max - sbox[5])
        if gap > EDGE_MAX + _TOL:
            return f"nearest wall is {gap:.3f} m away (limit {EDGE_MAX})"
        return None
    if rel.kind == "center":
        cx, cz = room.center
        dist = ((scx - cx) ** 2 + (scz - cz) ** 2) ** 0.5
        if dist > CENTER_MAX + _TOL:
            return f"{dist:.3f} m from room center (limit {CENTER_MAX})"
        return None
    if rel.kind == "mounted_on_wall":
        placement = env.placement_of(rel.subject)
        gap = back_gap(sbox, placement.direction, room)
        if gap > MOUNT_EPS + _TOL:
            return f"back face is {gap:.3f} m off the wall"
        if sbox[1] <= _TOL:
            return "mounted object rests on the floor"
        return None

    reference = env.object_by_id(rel.reference)
    if rel.kind not in DISTANCE_KINDS and reference.room != subject.room:
        return f"subject in room {subject.room}, reference in room {reference.room}"
    rbox = placed_box(reference, env.placement_of(rel.reference))
    rcx, rcz = _box_center(rbox)

    if rel.kind in DISTANCE_KINDS:
        dist = ((scx - rcx) ** 2 + (scz - rcz) ** 2) ** 0.5
        if rel.kind == "near" and dist > NEAR_MAX + _TOL:
            return f"centers are {dist:.3f} m apart (limit {NEAR_MAX})"
        if rel.kind == "far" and dist < FAR_MIN - _TOL:
            return f"centers are {dist:.3f} m apart (minimum {FAR_MIN})"
        return None
    if rel.kind == "on_top_of":
        if rests_on(sbox, rbox):
            return None
        if abs(sbox[1] - rbox[4]) > SUPPORT_EPS:
            return f"bottom at {sbox[1]:.3f}, top of reference at {rbox[4]:.3f}"
        return "insufficient footprint overlap with the supporting face"
    if rel.kind == "in":
        if not inside(sbox, rbox):
            return "subject is not inside the container box"
        return None
    if rel.kind == "above":
        if sbox[1] < rbox[4] - SUPPORT_EPS:
            return "subject bottom is below the reference top"
        w = overlap(sbox[0], sbox[3], rbox[0], rbox[3])
        d = overlap(sbox[2], sbox[5], rbox[2], rbox[5])
        if w <= 0 or d <= 0:
            return "no footprint overlap"
        return None
    if rel.kind == "in_front_of":
        placement = env.placement_of(rel.reference)
        fx, fz = DIRECTION_VECTORS[placement.direction]
        half = (rbox[3] - rbox[0]) / 2 if fx != 0 else (rbox[5] - rbox[2]) / 2
        if not _ray_reaches(rcx, rcz, placement.direction, sbox, FRONT_MAX + half):
            return "subject is not within the reference's facing cone"
        return None
    if rel.kind == "side_of":
        placement = env.placement_of(rel.reference)
        fx, fz = DIRECTION_VECTORS[placement.direction]
        dx, dz = scx - rcx, scz - rcz
        longitudinal = dx * fx + dz * fz
        lateral = dx * -fz + dz * fx
        if abs(longitudinal) > SIDE_LONG_MAX + _TOL:
            return f"longitudinal offset {abs(longitudinal):.3f} m (limit {SIDE_LONG_MAX})"
        if abs(lateral) <= _TOL:
            return "subject sits on the reference's axis, not at its side"
        return None
    if rel.kind == "center_aligned":
        if abs(scx - rcx) > CENTER_ALIGNED_EPS + _TOL and abs(scz - rcz) > CENTER_ALIGNED_EPS + _TOL:
            return "centers share neither axis"
        return None
    # face_to
    sp = env.placement_of(rel.subject)
    rp = env.placement_of(rel.reference)
    if not _ray_reaches(scx, scz, sp.direction, rbox, None):
        return "subject does not face the reference"
    if not _ray_reaches(rcx, rcz, rp.direction, sbox, None):
        return "reference does not face the subject"
    return None


def check_relations(env: EnvironmentSpec) -> tuple[list[Violation], list[int]]:
    violations: list[Violation] = []
    skipped: list[int] = []
    relaxed = set(env.relaxed_relations)
    for idx in range(len(env.relations)):
        if idx in relaxed:
            skipped.append(idx)
            continue
        reason = _relation_holds(env, idx)
        if reason is not None:
            rel = env.relations[idx]
            violations.append(
                Violation(
                    "relation",
                    f"relations[{idx}]",
                    f"{rel.kind}({rel.subject}" + (f", {rel.reference})" if rel.reference else ")") + f": {reason}",
                )
            )
    return violations, skipped


def validate_physics(env: EnvironmentSpec) -> PhysicsReport:
    floor = check_floor_plan(env)
    entity = check_entities(env)
    relation, skipped = check_relations(env)
    return PhysicsReport(floor + entity + relation, skipped)
