"""Environment data model: rooms, openings, objects, relations, placements.

An EnvironmentSpec is a fully explicit scene: rooms, doorways and windows
with solved positions, objects with bounding boxes and solved placements,
the spatial relations the layout was solved under, and a metadata map
regenerated from the geometry. A Room is its rectangle, x_min..x_max by
z_min..z_max in the x-z plane, from the provider's floor plan to the
validator; only an environment document stores its four corners, and
reading one checks that they span an axis-aligned rectangle. A part checks
its own fields when it is built, raising SchemaViolation, so a malformed
part never exists; every number of a part is finite. check_references,
which both the layout solver and EnvironmentSpec.validate call, checks the
parts against each other. A document stores six decimals, so
serialize_environment refuses a scene with an extent that would be written
as zero, whose text could not be read back.
Serialization is canonical (sorted keys, fixed float rounding) so identical
scenes are byte-identical on disk. An environment document is one record,
written by jsonio.json_text in one walk and read by parse_as: one key per
dataclass field, and a field with a default may be left out.

support_location is the one statement, outside the layout solver, of what
holds an object up; it writes each object's metadata location, and the
physics validator reports an object as floating exactly when it answers
"floating". The solver keeps its own support geometry and uses none of the
geometry helpers here, so a solver bug cannot pass its own check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import SchemaViolation
from .jsonio import _round, json_text, parse_as, parse_json
from .semantics import (
    CARDINALS,
    MOUNT_EPS,
    MOUNT_HEIGHT,
    SUPPORT_EPS,
    SUPPORT_OVERLAP_FRAC,
)

SCHEMA_VERSION = 1
_TOL = 1e-9

UNARY_KINDS = frozenset({"edge", "center", "mounted_on_wall"})
CONTACT_KINDS = frozenset({"in", "on_top_of"})
# the relations that fix an object's height; never relaxed, at most one per subject
SUPPORT_KINDS = CONTACT_KINDS | {"mounted_on_wall"}
DISTANCE_KINDS = frozenset({"near", "far"})
RELATIVE_KINDS = frozenset({"above", "in_front_of", "side_of", "center_aligned", "face_to"})
RELATION_KINDS = UNARY_KINDS | CONTACT_KINDS | DISTANCE_KINDS | RELATIVE_KINDS

# the side of a doorway that opens to the outside; no room may take this id
EXTERIOR = "exterior"

PRIORITIES = ("task", "enrichment")
CATEGORIES = ("task_related", "enrichment")


# ---------------------------------------------------------------------------
# parts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Room:
    id: str
    x_min: float
    z_min: float
    x_max: float
    z_max: float
    floor_color: str = ""
    floor_material: str = ""
    wall_color: str = ""
    wall_material: str = ""

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x_min, self.z_min, self.x_max, self.z_max))):
            raise SchemaViolation("room corners must be finite numbers")
        if self.id == EXTERIOR:
            raise SchemaViolation(f"room id {EXTERIOR!r} is reserved for a doorway's outside side")
        if self.x_max - self.x_min <= 0 or self.z_max - self.z_min <= 0:
            raise SchemaViolation("room must have positive area")

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x_min + self.x_max) / 2, (self.z_min + self.z_max) / 2)


make_room = Room  # the name bench/inputs.py imports


@dataclass(frozen=True)
class Doorway:
    id: str
    connects: tuple[str, str]  # room ids; EXTERIOR allowed on one side
    width: float
    height: float
    position: tuple[float, float] | None = None  # solved center (x, z) on the wall

    def __post_init__(self):
        if not all(map(math.isfinite, (self.width, self.height, *(self.position or ())))):
            raise SchemaViolation("doorway width, height and position must be finite numbers")
        if self.connects[0] == self.connects[1]:
            raise SchemaViolation("doorway must connect two distinct sides")
        if self.width <= 0 or self.height <= 0:
            raise SchemaViolation("doorway needs positive width and height")


@dataclass(frozen=True)
class Window:
    id: str
    room: str
    orientation: str  # which wall: north/south/east/west
    width: float
    height: float
    sill_height: float
    position: tuple[float, float] | None = None  # solved center (x, z) on the wall

    def __post_init__(self):
        if not all(map(math.isfinite, (self.width, self.height, self.sill_height, *(self.position or ())))):
            raise SchemaViolation("window width, height, sill_height and position must be finite numbers")
        if self.orientation not in CARDINALS:
            raise SchemaViolation(f"orientation must be one of {CARDINALS}")
        if self.width <= 0 or self.height <= 0:
            raise SchemaViolation("window needs positive width and height")
        if self.sill_height < 0:
            raise SchemaViolation("sill_height cannot be negative")


@dataclass(frozen=True)
class ObjectSpec:
    id: str
    description: str
    room: str
    size: tuple[float, float, float]  # extents along x, y, z before rotation
    category: str  # task_related | enrichment
    attributes: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not all(map(math.isfinite, self.size)):
            raise SchemaViolation("object size must be finite numbers")
        if self.category not in CATEGORIES:
            raise SchemaViolation(f"unknown category {self.category!r}")
        if any(s <= 0 for s in self.size):
            raise SchemaViolation("object size must be positive")
        for key, value in self.attributes.items():
            if not isinstance(value, str):
                raise SchemaViolation(f"attribute {key!r} must be a string")


@dataclass(frozen=True)
class SpatialRelation:
    kind: str
    subject: str
    reference: str | None = None
    priority: str = "task"

    def __post_init__(self):
        if self.kind not in RELATION_KINDS:
            raise SchemaViolation(f"unknown relation kind {self.kind!r}")
        if self.priority not in PRIORITIES:
            raise SchemaViolation(f"unknown priority {self.priority!r}")
        if self.kind in UNARY_KINDS:
            if self.reference is not None:
                raise SchemaViolation("unary relation takes no reference")
        elif self.reference is None:
            raise SchemaViolation("binary relation needs a reference")
        elif self.reference == self.subject:
            raise SchemaViolation("relation cannot reference its own subject")


@dataclass(frozen=True)
class Placement:
    object: str
    position: tuple[float, float, float]  # footprint center x, bottom face y, center z
    direction: str

    def __post_init__(self):
        if not all(map(math.isfinite, self.position)):
            raise SchemaViolation("placement position must be finite numbers")
        if self.direction not in CARDINALS:
            raise SchemaViolation(f"direction must be one of {CARDINALS}")


def check_references(rooms, doorways, windows, objects, relations) -> None:
    """No two rooms, doorways, windows or objects share an id, and every room
    and object that a part names exists; else a SchemaViolation naming the
    part. An id is unique across kinds because the solver names an opening's
    variable and an object's alike, ``<id>.pos``."""
    kind_of = {}
    for where, kind, parts in (
        ("rooms", "room", rooms),
        ("doorways", "doorway", doorways),
        ("windows", "window", windows),
        ("objects", "object", objects),
    ):
        for part in parts:
            first = kind_of.get(part.id)
            if first == kind:
                raise SchemaViolation(f"duplicate {kind} ids", f"{where}[{part.id}]")
            if first is not None:
                message = f"{kind} id {part.id!r} is also a {first} id"
                raise SchemaViolation(message, f"{where}[{part.id}]")
            kind_of[part.id] = kind
    room_ids = {r.id for r in rooms}
    object_ids = {o.id for o in objects}
    for door in doorways:
        for side in door.connects:
            if side != EXTERIOR and side not in room_ids:
                raise SchemaViolation(f"unknown room {side!r}", f"doorways[{door.id}]")
    for where, parts in (("windows", windows), ("objects", objects)):
        for part in parts:
            if part.room not in room_ids:
                raise SchemaViolation(f"unknown room {part.room!r}", f"{where}[{part.id}]")
    for i, rel in enumerate(relations):
        for role, entity in (("subject", rel.subject), ("reference", rel.reference)):
            if entity is not None and entity not in object_ids:
                raise SchemaViolation(f"unknown {role} {entity!r}", f"relations[{i}]")


def mount_height(obj: ObjectSpec) -> float:
    """The bottom height of a wall-mounted object: its mount_height
    attribute, else MOUNT_HEIGHT."""
    return float(obj.attributes.get("mount_height", MOUNT_HEIGHT))


def footprint(size, direction: str) -> tuple[float, float]:
    """Horizontal extents (x, z) after rotating to the given cardinal."""
    sx, _, sz = size
    if direction in ("east", "west"):
        return sz, sx
    return sx, sz


def placed_box(obj: ObjectSpec, placement: Placement):
    """World-space AABB (x0, y0, z0, x1, y1, z1) for a placed object."""
    fx, fz = footprint(obj.size, placement.direction)
    x, y, z = placement.position
    return (x - fx / 2, y, z - fz / 2, x + fx / 2, y + obj.size[1], z + fz / 2)


# ---------------------------------------------------------------------------
# the environment
# ---------------------------------------------------------------------------


@dataclass
class EnvironmentSpec:
    id: str
    task_id: str
    trajectory_id: str
    rooms: list[Room]
    doorways: list[Doorway] = field(default_factory=list)
    windows: list[Window] = field(default_factory=list)
    objects: list[ObjectSpec] = field(default_factory=list)
    relations: list[SpatialRelation] = field(default_factory=list)
    placements: list[Placement] = field(default_factory=list)
    relaxed_relations: list[int] = field(default_factory=list)
    tracked_entities: list[str] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)  # (entity, attribute) -> value

    def room_by_id(self, room_id: str) -> Room:
        for room in self.rooms:
            if room.id == room_id:
                return room
        raise KeyError(room_id)

    def object_by_id(self, object_id: str) -> ObjectSpec:
        for obj in self.objects:
            if obj.id == object_id:
                return obj
        raise KeyError(object_id)

    def placement_of(self, object_id: str) -> Placement:
        for p in self.placements:
            if p.object == object_id:
                return p
        raise KeyError(object_id)

    def validate(self) -> None:
        """check_references, then that the placements cover every object once
        and each relaxed index names a relation; raises SchemaViolation."""
        check_references(self.rooms, self.doorways, self.windows, self.objects, self.relations)
        if sorted(p.object for p in self.placements) != sorted(o.id for o in self.objects):
            raise SchemaViolation(
                "placements must cover every object exactly once", "placements"
            )
        for idx in self.relaxed_relations:
            if not 0 <= idx < len(self.relations):
                raise SchemaViolation(f"relaxed relation index {idx} out of range", "relaxed_relations")


# ---------------------------------------------------------------------------
# support: what holds an object up
# ---------------------------------------------------------------------------


def placed_boxes(env: EnvironmentSpec) -> dict[str, tuple]:
    """Each object's placed box, in env.objects order, from its first
    placement as placement_of finds it; an object without one is a
    KeyError, as there."""
    placement = {p.object: p for p in reversed(env.placements)}
    return {o.id: placed_box(o, placement[o.id]) for o in env.objects}


def mounted_subjects(env: EnvironmentSpec) -> set[str]:
    return {r.subject for r in env.relations if r.kind == "mounted_on_wall"}


def overlap(a0: float, a1: float, b0: float, b1: float) -> float:
    return min(a1, b1) - max(a0, b0)


def back_gap(box, direction: str, room: Room) -> float:
    """Distance from the object's back face to the wall it backs onto."""
    if direction == "north":
        return abs(box[2] - room.z_min)
    if direction == "south":
        return abs(room.z_max - box[5])
    if direction == "east":
        return abs(box[0] - room.x_min)
    return abs(room.x_max - box[3])


def rests_on(box, ob) -> bool:
    """box's bottom lies on ob's top face and enough of its footprint
    overlaps ob's."""
    if abs(box[1] - ob[4]) > SUPPORT_EPS:
        return False
    w = overlap(box[0], box[3], ob[0], ob[3])
    d = overlap(box[2], box[5], ob[2], ob[5])
    area = (box[3] - box[0]) * (box[5] - box[2])
    return w > 0 and d > 0 and w * d >= SUPPORT_OVERLAP_FRAC * area - _TOL


def inside(box, ob) -> bool:
    """box lies within ob, up to SUPPORT_EPS and _TOL on every face."""
    eps = SUPPORT_EPS + _TOL
    return (
        box[0] >= ob[0] - eps
        and box[2] >= ob[2] - eps
        and box[3] <= ob[3] + eps
        and box[5] <= ob[5] + eps
        and box[1] >= ob[1] - eps
        and box[4] <= ob[4] + eps
    )


def support_location(env: EnvironmentSpec, obj: ObjectSpec, boxes: dict, mounted: set) -> str:
    """Where an object rests, by geometry alone, first match wins:
    "<id>_in" (inside that object, on its bottom), "<id>_top" (resting on
    its top face), "floor", "wall" (a mounted_on_wall subject above the
    floor with its back on its room's wall), else "floating". boxes is
    placed_boxes(env) and mounted is mounted_subjects(env); objects are
    scanned in env.objects order."""
    box = boxes[obj.id]
    for other, ob in boxes.items():
        if other != obj.id and inside(box, ob) and abs(box[1] - ob[1]) <= SUPPORT_EPS:
            return f"{other}_in"
    for other, ob in boxes.items():
        if other != obj.id and rests_on(box, ob):
            return f"{other}_top"
    if abs(box[1]) <= SUPPORT_EPS:
        return "floor"
    if obj.id in mounted and box[1] > SUPPORT_EPS:
        direction = env.placement_of(obj.id).direction
        if back_gap(box, direction, env.room_by_id(obj.room)) <= MOUNT_EPS + _TOL:
            return "wall"
    return "floating"


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------


def rebuild_metadata(env: EnvironmentSpec) -> dict:
    """Derive the (entity, attribute) -> value map from geometry alone.

    Pure: never mutates the environment. Tracked entities with no matching
    object get a presence = absent marker, everything else is derived from
    objects, placements, and declared attributes.
    """
    meta: dict[tuple[str, str], str] = {}
    present = {o.id for o in env.objects}
    boxes = placed_boxes(env)
    mounted = mounted_subjects(env)
    for obj in env.objects:
        meta[(obj.id, "presence")] = "present"
        meta[(obj.id, "room")] = obj.room
        meta[(obj.id, "location")] = support_location(env, obj, boxes, mounted)
        for key, value in sorted(obj.attributes.items()):
            meta[(obj.id, key)] = value
    for entity in env.tracked_entities:
        if entity not in present:
            meta[(entity, "presence")] = "absent"
    return meta


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

@dataclass
class _StoredRoom:
    """A room as an environment document stores it: its four corners (x, z)."""

    id: str
    vertices: tuple[tuple[float, float], ...]
    floor_color: str = ""
    floor_material: str = ""
    wall_color: str = ""
    wall_material: str = ""

    @classmethod
    def of(cls, r: Room) -> _StoredRoom:
        corners = ((r.x_min, r.z_min), (r.x_max, r.z_min), (r.x_max, r.z_max), (r.x_min, r.z_max))
        return cls(r.id, corners, r.floor_color, r.floor_material, r.wall_color, r.wall_material)

    def room(self) -> Room:
        """The rectangle the corners span; a SchemaViolation naming the room
        unless they are the four corners of an axis-aligned rectangle and
        the Room is valid."""
        where = f"rooms[{self.id}]"
        if len(self.vertices) != 4:
            raise SchemaViolation("room must have 4 vertices", where)
        xs, zs = zip(*self.vertices)
        if len(set(map(_round, xs))) != 2 or len(set(map(_round, zs))) != 2:
            raise SchemaViolation("room vertices must form an axis-aligned rectangle", where)
        styles = (self.floor_color, self.floor_material, self.wall_color, self.wall_material)
        try:
            return Room(self.id, min(xs), min(zs), max(xs), max(zs), *styles)
        except SchemaViolation as exc:
            raise SchemaViolation(str(exc), where) from None


@dataclass
class _FloorPlan:
    rooms: tuple[_StoredRoom, ...] = ()
    doorways: tuple[Doorway, ...] = ()
    windows: tuple[Window, ...] = ()


@dataclass
class _Document:
    """An environment document as it is written."""

    schema_version: int
    id: str
    task_id: str
    trajectory_id: str
    floor_plan: _FloorPlan = field(default_factory=_FloorPlan)
    objects: tuple[ObjectSpec, ...] = ()
    relations: tuple[SpatialRelation, ...] = ()
    relaxed_relations: tuple[int, ...] = ()
    placements: tuple[Placement, ...] = ()
    tracked_entities: tuple[str, ...] = ()
    metadata: dict[str, dict[str, str]] | None = None  # entity -> attribute -> value


def _nested(meta: dict) -> dict:
    nested: dict[str, dict[str, str]] = {}
    for (entity, attr), value in meta.items():
        nested.setdefault(entity, {})[attr] = value
    return nested


def _require_storable(env: EnvironmentSpec) -> None:
    """A SchemaViolation naming the first part with an extent that a
    document's six decimals would store as zero: its text would not read
    back."""
    for r in env.rooms:
        if _round(r.x_max) <= _round(r.x_min) or _round(r.z_max) <= _round(r.z_min):
            raise SchemaViolation("room area rounds to zero", f"rooms[{r.id}]")
    # a positive extent can round to zero only below 1e-6
    for where, parts in (("doorways", env.doorways), ("windows", env.windows)):
        for part in parts:
            extent = min(part.width, part.height)
            if extent < 1e-6 and _round(extent) <= 0:
                raise SchemaViolation("width or height rounds to zero", f"{where}[{part.id}]")
    for o in env.objects:
        extent = min(o.size)
        if extent < 1e-6 and _round(extent) <= 0:
            raise SchemaViolation("size rounds to zero", f"objects[{o.id}]")


def serialize_environment(env: EnvironmentSpec) -> str:
    """Canonical JSON text; embeds freshly rebuilt metadata."""
    env.validate()
    _require_storable(env)
    doc = _Document(
        schema_version=SCHEMA_VERSION,
        id=env.id,
        task_id=env.task_id,
        trajectory_id=env.trajectory_id,
        floor_plan=_FloorPlan(
            tuple(map(_StoredRoom.of, env.rooms)), tuple(env.doorways), tuple(env.windows)
        ),
        objects=tuple(env.objects),
        relations=tuple(env.relations),
        relaxed_relations=tuple(env.relaxed_relations),
        placements=tuple(env.placements),
        tracked_entities=tuple(sorted(env.tracked_entities)),
        metadata=_nested(rebuild_metadata(env)),
    )
    return json_text(doc)


def deserialize_environment(text: str) -> EnvironmentSpec:
    doc = parse_json(text, "environment document")
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if version != SCHEMA_VERSION:
        raise SchemaViolation(f"unsupported schema_version {version!r}", "schema_version")
    doc = parse_as(_Document, doc, "environment document")
    env = EnvironmentSpec(
        id=doc.id,
        task_id=doc.task_id,
        trajectory_id=doc.trajectory_id,
        rooms=[r.room() for r in doc.floor_plan.rooms],
        doorways=list(doc.floor_plan.doorways),
        windows=list(doc.floor_plan.windows),
        objects=list(doc.objects),
        relations=list(doc.relations),
        placements=list(doc.placements),
        relaxed_relations=list(doc.relaxed_relations),
        tracked_entities=list(doc.tracked_entities),
    )
    env.validate()
    env.metadata = rebuild_metadata(env)
    if doc.metadata is not None and doc.metadata != _nested(env.metadata):
        raise SchemaViolation(
            "stored metadata disagrees with geometry-derived metadata", "metadata"
        )
    return env
